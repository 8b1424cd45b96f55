"""The ``dashboard`` request generator: ad-events templates with literals
drawn per request, and a seeded Poisson arrival schedule.

Every template comes from :data:`repro.adevents.ADEVENTS_QUERIES`; the
ones with a natural literal slot (day window, country IN-list, HAVING
threshold) get it drawn from a small domain, so a stream mixes exact
repeats, literal-only variants of one template and first sightings.
The same seed yields the identical request list and schedule.
"""

from __future__ import annotations

import random

from repro.adevents import ADEVENTS_QUERIES, FIRST_DAY, N_DAYS
from repro.engine import days_to_date

from .loadgen import Req

__all__ = ["TEMPLATES", "generate_requests", "poisson_schedule", "mix_shares"]

_COUNTRIES = ("US", "DE", "FR", "JP", "BR", "IN", "GB", "CA")
_WINDOW_STARTS = tuple(range(0, N_DAYS - 28, 14))
_WINDOW_DAYS = (7, 14, 28)
_THRESHOLDS = (2, 3, 4, 5)


def _day(offset: int) -> str:
    return str(days_to_date(FIRST_DAY + offset))


def _window(rng: random.Random) -> dict:
    start = rng.choice(_WINDOW_STARTS)
    return {"d0": _day(start), "d1": _day(start + rng.choice(_WINDOW_DAYS) - 1)}


def _countries(rng: random.Random) -> dict:
    picked = sorted(rng.sample(_COUNTRIES, 2))
    return {"countries": ", ".join(f"'{c}'" for c in picked)}


def _threshold(rng: random.Random) -> dict:
    return {"k": rng.choice(_THRESHOLDS)}


def _fixed(rng: random.Random) -> dict:
    return {}


# name -> (SQL format string, literal drawer, weight in the mix).
TEMPLATES: dict[str, tuple[str, object, int]] = {
    "daily_funnel": (
        """SELECT ev_day, COUNT(*) AS events,
               SUM(CASE WHEN ev_type = 'click' THEN 1 ELSE 0 END) AS clicks,
               SUM(CASE WHEN ev_type = 'conversion' THEN 1 ELSE 0 END)
                   AS conversions,
               SUM(ev_cost) AS spend
        FROM events
        WHERE ev_day BETWEEN DATE '{d0}' AND DATE '{d1}'
        GROUP BY ev_day ORDER BY ev_day""",
        _window, 4,
    ),
    "top_advertisers": (
        ADEVENTS_QUERIES["top_advertisers"]
        .replace("2024-02-01", "{d0}").replace("2024-03-31", "{d1}"),
        _window, 4,
    ),
    "category_revenue": (
        ADEVENTS_QUERIES["category_revenue"]
        .replace("'US', 'DE', 'JP'", "{countries}"),
        _countries, 3,
    ),
    "whale_share": (
        ADEVENTS_QUERIES["whale_share"].replace("COUNT(*) >= 3", "COUNT(*) >= {k}"),
        _threshold, 1,
    ),
    "channel_ctr": (ADEVENTS_QUERIES["channel_ctr"], _fixed, 3),
    "campaign_margin": (ADEVENTS_QUERIES["campaign_margin"], _fixed, 2),
    "overspent_campaigns": (ADEVENTS_QUERIES["overspent_campaigns"], _fixed, 1),
    "site_prefixes": (ADEVENTS_QUERIES["site_prefixes"], _fixed, 1),
    "advertiser_segments": (ADEVENTS_QUERIES["advertiser_segments"], _fixed, 1),
    "dead_sites": (ADEVENTS_QUERIES["dead_sites"], _fixed, 1),
    "premium_reach": (ADEVENTS_QUERIES["premium_reach"], _fixed, 1),
}


def generate_requests(seed: int, count: int) -> list[Req]:
    """``count`` requests drawn from :data:`TEMPLATES` by weight, each
    keyed by its template name with the SQL text as payload."""
    rng = random.Random(f"dashboard-requests-{seed}")
    names = list(TEMPLATES)
    weights = [TEMPLATES[name][2] for name in names]
    out = []
    for name in rng.choices(names, weights=weights, k=count):
        text, draw, _ = TEMPLATES[name]
        literals = draw(rng)
        out.append(Req(name, text.format(**literals) if literals else text))
    return out


def poisson_schedule(seed: int, rate_qps: float, count: int) -> list[float]:
    """Due times (seconds from the phase start) of ``count`` arrivals of
    a Poisson process at ``rate_qps``."""
    rng = random.Random(f"dashboard-schedule-{seed}-{rate_qps}")
    due, t = [], 0.0
    for _ in range(count):
        t += rng.expovariate(rate_qps)
        due.append(t)
    return due


def mix_shares(requests: list[Req]) -> dict:
    """Shares of exact repeats (text seen before), literal-only variants
    (template seen before with other literals) and first sightings."""
    texts, templates = set(), set()
    repeats = variants = 0
    for req in requests:
        if req.payload in texts:
            repeats += 1
        elif req.key in templates:
            variants += 1
        texts.add(req.payload)
        templates.add(req.key)
    n = max(1, len(requests))
    return {
        "exact_repeat_share": repeats / n,
        "literal_variant_share": variants / n,
        "first_seen_share": (n - repeats - variants) / n,
        "distinct_texts": len(texts),
    }
