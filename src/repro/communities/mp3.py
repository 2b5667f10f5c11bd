"""The MP3-sharing community (the Napster-shaped example of the paper).

The paper repeatedly uses MP3 sharing as the canonical community — and
notes that "the focus of existing communities can be narrowed by
specifying additional attributes — for example: MP3 trading
sub-communities focused on the work of a single artist or genre."
``narrowed_mp3_community`` builds exactly such a sub-community.
"""

from __future__ import annotations

import random

from repro.communities.base import CommunityDefinition
from repro.schema.builder import SchemaBuilder, schema_to_xsd

GENRES = ("rock", "jazz", "classical", "electronic", "folk", "hip-hop", "blues")

_ARTISTS = (
    ("Miles Davis", "jazz", ("Kind of Blue", "Bitches Brew", "Sketches of Spain")),
    ("John Coltrane", "jazz", ("A Love Supreme", "Blue Train", "Giant Steps")),
    ("Glenn Gould", "classical", ("Goldberg Variations", "The Well-Tempered Clavier", "Partitas")),
    ("Kraftwerk", "electronic", ("Autobahn", "Trans-Europe Express", "Computer World")),
    ("Joni Mitchell", "folk", ("Blue", "Court and Spark", "Hejira")),
    ("Led Zeppelin", "rock", ("IV", "Physical Graffiti", "Houses of the Holy")),
    ("Muddy Waters", "blues", ("Hard Again", "Folk Singer", "At Newport")),
    ("A Tribe Called Quest", "hip-hop", ("The Low End Theory", "Midnight Marauders", "Peoples Travels")),
)

_TRACK_WORDS = (
    "blue", "night", "train", "river", "light", "dance", "echo", "summer", "winter",
    "road", "dream", "fire", "rain", "shadow", "golden", "electric", "slow", "fast",
)


def mp3_schema_xsd() -> str:
    """The MP3 community schema (title/artist/album/genre searchable)."""
    builder = SchemaBuilder("mp3")
    builder.field("title", searchable=True, documentation="Track title")
    builder.field("artist", searchable=True, documentation="Performing artist")
    builder.field("album", searchable=True, documentation="Album the track appears on")
    builder.field("genre", enumeration=GENRES, searchable=True)
    builder.field("year", "gYear", optional=True)
    builder.field("bitrate", "positiveInteger", documentation="Encoding bitrate in kbit/s")
    builder.field("duration", "positiveInteger", optional=True, documentation="Length in seconds")
    builder.field("file", "anyURI", attachment=True, optional=True,
                  documentation="The audio file itself, downloaded on retrieve")
    return schema_to_xsd(builder.build())


def generate_mp3_corpus(size: int, seed: int = 0) -> list[dict[str, object]]:
    """``size`` synthetic MP3 descriptions with a Zipf-ish artist skew."""
    rng = random.Random(seed)
    corpus: list[dict[str, object]] = []
    for index in range(size):
        # Popular artists appear more often (harmonic weighting).
        weights = [1.0 / (rank + 1) for rank in range(len(_ARTISTS))]
        artist, genre, albums = rng.choices(_ARTISTS, weights=weights, k=1)[0]
        title = " ".join(rng.sample(_TRACK_WORDS, rng.randint(1, 3))).title()
        corpus.append({
            "title": f"{title} No. {index % 19 + 1}",
            "artist": artist,
            "album": rng.choice(albums),
            "genre": genre,
            "year": str(rng.randint(1959, 2002)),
            "bitrate": str(rng.choice((128, 160, 192, 256, 320))),
            "duration": str(rng.randint(90, 780)),
            "file": f"http://peer.local/audio/{index:05d}.mp3",
        })
    return corpus


def mp3_community() -> CommunityDefinition:
    """The full MP3 community definition."""
    return CommunityDefinition(
        name="MP3 community",
        schema_xsd=mp3_schema_xsd(),
        description="Trade MP3 audio meta-data and files over any peer-to-peer network.",
        keywords="music mp3 audio napster",
        category="media",
        protocol="Gnutella",
        corpus=generate_mp3_corpus,
    )


def narrowed_mp3_community(artist: str) -> CommunityDefinition:
    """An artist-focused sub-community (the paper's narrowing example)."""
    definition = mp3_community()

    def corpus(size: int, seed: int = 0) -> list[dict[str, object]]:
        records = [record for record in generate_mp3_corpus(size * 3, seed)
                   if record["artist"] == artist]
        return records[:size]

    return CommunityDefinition(
        name=f"MP3 community: {artist}",
        schema_xsd=definition.schema_xsd,
        description=f"MP3 trading focused on the work of {artist}.",
        keywords=f"music mp3 {artist.lower()}",
        category="media",
        protocol=definition.protocol,
        corpus=corpus,
    )
