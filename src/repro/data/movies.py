"""A second domain: a synthetic movie catalog with its own search workload.

"Our solution is general and presents a domain-independent approach to
addressing the information overload problem" (Section 1).  One synthetic
domain cannot witness that claim; this module provides a structurally
different second one — a movie catalog — with the same deliverables as
:mod:`repro.data.homes` / :mod:`repro.workload.generator`: a deterministic
relation generator and a persona-based SQL search log whose statistics
exhibit the skew the categorizer feeds on (genre popularity, round-number
year ranges, rating floors).

Used by ``examples/movies.py`` and the cross-domain benchmark
(``benchmarks/test_ablation_cross_domain.py``).
"""

from __future__ import annotations

import random

from repro.data.distributions import weighted_choice
from repro.relational.backends import DEFAULT_BACKEND
from repro.relational.schema import Attribute, TableSchema
from repro.relational.table import Table
from repro.relational.types import AttributeKind, DataType
from repro.workload.log import Workload


#: Genres with relative catalog share and search popularity (they differ:
#: documentaries are plentiful but rarely searched, thrillers the reverse).
GENRES: tuple[tuple[str, float, float], ...] = (
    # (name, catalog weight, search weight)
    ("Drama", 5.0, 2.5),
    ("Comedy", 4.0, 3.5),
    ("Action", 3.0, 4.5),
    ("Thriller", 2.0, 4.0),
    ("Documentary", 3.0, 0.8),
    ("Horror", 1.5, 2.5),
    ("Sci-Fi", 1.5, 3.0),
    ("Romance", 2.0, 1.8),
    ("Animation", 1.2, 2.2),
    ("Western", 0.5, 0.4),
)

#: Languages with catalog share.
LANGUAGES: tuple[tuple[str, float], ...] = (
    ("English", 7.0),
    ("French", 1.0),
    ("Spanish", 1.0),
    ("Japanese", 0.8),
    ("Korean", 0.6),
    ("German", 0.5),
    ("Hindi", 0.7),
)

#: Ratings boards.
CERTIFICATES = ("G", "PG", "PG-13", "R")


def movie_schema() -> TableSchema:
    """The Movies relation: 3 categorical + 4 numeric attributes."""
    return TableSchema(
        "Movies",
        (
            Attribute("genre", DataType.TEXT, AttributeKind.CATEGORICAL),
            Attribute("language", DataType.TEXT, AttributeKind.CATEGORICAL),
            Attribute("certificate", DataType.TEXT, AttributeKind.CATEGORICAL),
            Attribute("year", DataType.INT, AttributeKind.NUMERIC),
            Attribute("runtime", DataType.INT, AttributeKind.NUMERIC),
            Attribute("rating", DataType.FLOAT, AttributeKind.NUMERIC),
            Attribute("votes", DataType.INT, AttributeKind.NUMERIC),
        ),
    )


#: Separation intervals for the movie domain's numeric attributes.
MOVIE_SEPARATION_INTERVALS = {
    "year": 5.0,
    "runtime": 10.0,
    "rating": 0.5,
    "votes": 10_000.0,
}


def generate_movies(
    rows: int = 20_000,
    seed: int = 3,
    backend: str = DEFAULT_BACKEND,
) -> Table:
    """Generate the synthetic movie catalog, deterministic under ``seed``."""
    if rows <= 0:
        raise ValueError(f"rows must be positive, got {rows}")
    rng = random.Random(seed)
    genre_names = [g for g, _, _ in GENRES]
    genre_weights = [w for _, w, _ in GENRES]
    language_names = [l for l, _ in LANGUAGES]
    language_weights = [w for _, w in LANGUAGES]

    def movies():
        for _ in range(rows):
            genre = weighted_choice(rng, genre_names, genre_weights)
            year = min(2004, max(1920, int(rng.gauss(1985, 18))))
            rating = round(min(9.8, max(1.0, rng.gauss(6.2, 1.2))), 1)
            # Popular, well-rated, recent movies accumulate votes.
            votes_scale = 10 ** rng.uniform(2.0, 5.5)
            votes = int(votes_scale * (0.4 + rating / 10) * (0.5 + (year - 1920) / 170))
            runtime = int(round(rng.gauss(108, 18) / 5) * 5)
            yield {
                "genre": genre,
                "language": weighted_choice(rng, language_names, language_weights),
                "certificate": rng.choice(CERTIFICATES),
                "year": year,
                "runtime": max(60, min(240, runtime)),
                "rating": rating,
                "votes": max(50, votes),
            }

    return Table.from_rows(movie_schema(), movies(), backend=backend)


def generate_movie_workload(queries: int = 8_000, seed: int = 5) -> Workload:
    """Persona-based movie searches, as SQL strings.

    Attribute usage is calibrated so an x = 0.4 elimination keeps genre,
    rating and year — the attributes movie browsing actually pivots on —
    and discards votes/certificate/runtime.
    """
    if queries <= 0:
        raise ValueError(f"queries must be positive, got {queries}")
    rng = random.Random(seed)
    genre_names = [g for g, _, _ in GENRES]
    genre_search_weights = [w for _, _, w in GENRES]
    statements = []
    for _ in range(queries):
        parts: list[str] = []
        if rng.random() < 0.85:
            count = rng.choice((1, 1, 1, 2, 3))
            chosen: list[str] = []
            remaining = list(zip(genre_names, genre_search_weights))
            for _ in range(count):
                names = [n for n, _ in remaining]
                weights = [w for _, w in remaining]
                pick = weighted_choice(rng, names, weights)
                chosen.append(pick)
                remaining = [(n, w) for n, w in remaining if n != pick]
            rendered = ", ".join(f"'{g}'" for g in chosen)
            parts.append(f"genre IN ({rendered})")
        if rng.random() < 0.65:
            floor = rng.choice((6.0, 6.5, 7.0, 7.0, 7.5, 8.0))
            parts.append(f"rating >= {floor}")
        if rng.random() < 0.55:
            low = rng.choice((1960, 1970, 1980, 1990, 1990, 1995, 2000))
            if rng.random() < 0.5:
                parts.append(f"year >= {low}")
            else:
                parts.append(f"year BETWEEN {low} AND {min(2004, low + rng.choice((5, 10, 10, 20)))}")
        if rng.random() < 0.30:
            parts.append(f"language IN ('{weighted_choice(rng, [l for l, _ in LANGUAGES], [w for _, w in LANGUAGES])}')")
        if rng.random() < 0.20:
            parts.append(f"runtime <= {rng.choice((100, 120, 120, 150))}")
        if rng.random() < 0.15:
            parts.append(f"votes >= {rng.choice((1000, 10000, 100000))}")
        if rng.random() < 0.10:
            parts.append(f"certificate IN ('{rng.choice(CERTIFICATES)}')")
        if not parts:
            parts.append("rating >= 7.0")
        statements.append("SELECT * FROM Movies WHERE " + " AND ".join(parts))
    return Workload.from_sql_strings(statements)
