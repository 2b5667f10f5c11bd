"""Tests for the static web UI renderer."""

import pytest

from repro.core.webui import WebUI
from repro.communities.mp3 import mp3_community


@pytest.fixture()
def populated(two_servents):
    alice, bob = two_servents
    definition = mp3_community()
    app = definition.application_on(alice)
    for record in definition.sample_corpus(4, seed=2):
        app.publish(record)
    return alice, bob, app


class TestPages:
    def test_home_page(self, populated):
        alice, _, app = populated
        html = WebUI(alice).home_page()
        assert html.startswith("<!DOCTYPE html>")
        assert "Servent alice" in html
        assert "MP3 community" in html
        assert "centralized" in html

    def test_page_skeleton(self, populated):
        alice, _, app = populated
        ui = WebUI(alice, title="U-P2P <lab>")
        for page in (ui.home_page(), ui.communities_page(),
                     ui.community_page(app.community.community_id)):
            assert page.startswith("<!DOCTYPE html>\n<html><head>")
            assert "<title>U-P2P &lt;lab&gt; — " in page
            assert '<a href="index.html">Home</a>' in page
            assert '<a href="communities.html">Communities</a>' in page
            assert page.endswith("</body></html>")

    def test_communities_page_lists_discovered_communities(self, populated):
        _, bob, app = populated
        html = WebUI(bob).communities_page()
        assert "MP3 community" in html
        assert "join-" in html
        assert "music" in html

    def test_community_page_embeds_generated_forms(self, populated):
        alice, _, app = populated
        html = WebUI(alice).community_page(app.community.community_id)
        assert "up2p-create" in html and "up2p-search" in html
        assert "Locally shared objects (4)" in html
        assert "view-" in html

    def test_community_page_requires_membership(self, populated):
        _, bob, app = populated
        from repro.core.errors import NotAMemberError
        with pytest.raises(NotAMemberError):
            WebUI(bob).community_page(app.community.community_id)

    def test_results_and_view_pages(self, populated):
        alice, bob, app = populated
        bob.join_community(app.community)
        response = bob.search(app.community.community_id, "", max_results=10)
        html = WebUI(bob).results_page(app.community, response)
        assert "download-" in html
        assert f"{response.result_count} results" in html
        view_html = WebUI(alice).view_page(app.shared_objects()[0].resource_id)
        assert "up2p-view" in view_html

    def test_escaping_of_user_content(self, two_servents):
        alice, _ = two_servents
        from repro.core.application import Application
        from repro.schema.builder import SchemaBuilder
        xsd = SchemaBuilder("note").field("body", searchable=True).to_xsd()
        app = Application.generate(alice, "Notes <&> community", xsd,
                                   description="say <anything> & more")
        html = WebUI(alice).communities_page()
        assert "<anything>" not in html
        assert "&lt;anything&gt;" in html


class TestExport:
    def test_export_site(self, populated, tmp_path):
        alice, _, app = populated
        files = WebUI(alice).export_site(tmp_path / "site")
        assert "index.html" in files
        assert "communities.html" in files
        assert any(name.startswith("community-") for name in files)
        assert sum(1 for name in files if name.startswith("view-")) == len(alice.repository.documents)
        for name in files:
            content = (tmp_path / "site" / name).read_text(encoding="utf-8")
            assert content.startswith("<!DOCTYPE html>")
