"""Tests for the generated application façade."""

import re

import pytest

from repro.core.application import Application
from repro.core.errors import InvalidObjectError
from repro.communities.mp3 import mp3_schema_xsd


class TestGeneratedApplication:
    def test_generate_creates_and_joins_community(self, two_servents):
        alice, _ = two_servents
        application = Application.generate(alice, "MP3 community", mp3_schema_xsd(),
                                           keywords="music mp3")
        assert application.object_name == "mp3"
        assert alice.registry.is_joined(application.community.community_id)

    def test_publish_and_search(self, mp3_application):
        mp3_application.publish({
            "title": "So What", "artist": "Miles Davis", "album": "Kind of Blue",
            "genre": "jazz", "bitrate": "192",
        })
        response = mp3_application.search("so what")
        assert response.result_count == 1
        assert mp3_application.browse().result_count == 1
        assert len(mp3_application.shared_objects()) == 1

    def test_publish_xml(self, mp3_application, sample_mp3_xml):
        resource = mp3_application.publish_xml(sample_mp3_xml)
        assert mp3_application.search({"artist": "miles davis"}).result_count == 1
        assert resource.community_id == mp3_application.community.community_id

    def test_publish_invalid_rejected(self, mp3_application):
        with pytest.raises(InvalidObjectError):
            mp3_application.publish({"title": "x", "artist": "y", "album": "z",
                                     "genre": "polka", "bitrate": "192"})

    def test_generated_pages(self, mp3_application):
        create_html = mp3_application.create_page_html()
        search_html = mp3_application.search_page_html()
        assert "up2p-create" in create_html and 'name="title"' in create_html
        assert "up2p-search" in search_html

    def test_forms_follow_schema(self, mp3_application):
        search_html = mp3_application.search_page_html()
        searchable = set(re.findall(r'<tr class="searchable">.*?name="(\w+)"', search_html))
        assert searchable == {"title", "artist", "album", "genre"}
        assert 'name="bitrate"' in mp3_application.create_page_html()

    def test_view_resource(self, mp3_application):
        resource = mp3_application.publish({
            "title": "Blue Train", "artist": "John Coltrane", "album": "Blue Train",
            "genre": "jazz", "bitrate": "256",
        })
        html = mp3_application.view(resource.resource_id)
        assert "Blue Train" in html
        assert "John Coltrane" in mp3_application.view_resource(resource)

    def test_second_peer_application_via_join(self, joined_pattern_apps, gof_records):
        alice_app, bob_app = joined_pattern_apps
        alice_app.publish(gof_records[18])           # Observer
        response = bob_app.search("observer")
        assert response.result_count == 1
        downloaded = bob_app.download(response.results[0])
        html = bob_app.view(downloaded.resource_id)
        # Bob joined with the community's custom view stylesheet.
        assert "<h1>Observer</h1>" in html

    def test_case_study_index_filter_applied(self, pattern_application, gof_records):
        pattern_application.publish(gof_records[0])
        servent = pattern_application.servent
        community_id = pattern_application.community.community_id
        indexed_fields = servent.repository.index.fields_for(community_id)
        assert "sample_code" not in indexed_fields
        assert "name" in indexed_fields and "intent" in indexed_fields
