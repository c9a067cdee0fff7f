"""Structural pattern library: motif storage, similarity scoring, clustering.

Motifs are unit-length non-negative directions in operator-histogram space,
kept per problem category. The library starts from seeded baseline templates
and is periodically refined by spherical k-means over observed histograms;
a frozen library (test-time) rejects refinement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .model import WorkflowState

LIBRARY_FORMAT_VERSION = 1


class FrozenLibraryError(RuntimeError):
    """Refinement was attempted on a frozen (test-time) library."""


class MotifInitError(ValueError):
    """Template generation could not satisfy the separation requirement."""


@dataclass(frozen=True)
class Motif:
    """One template of a category: a unit vector over the registry's operators, and its origin."""

    category: str
    vector: tuple[float, ...]   # unit Euclidean length, non-negative entries
    origin: str                 # "baseline_template" | "clustered"


@dataclass(frozen=True)
class MotifConfig:
    """The motif settings of a run: how many templates `init_templates`
    places per category, and the four `refine` reads of the library."""

    templates_per_category: int = 10
    refinement_period: int = 3
    cluster_count_per_category: int = 20
    min_separation: float = 0.3
    max_per_category: int = 30

    def __post_init__(self) -> None:
        # refinement runs on rounds divisible by the period, and keeps up to
        # that many centroids per category; below 1 either is meaningless
        if self.refinement_period < 1:
            raise ValueError("motifs.refinement_period must be >= 1")
        if self.cluster_count_per_category < 1:
            raise ValueError("motifs.cluster_count_per_category must be >= 1")
        if self.max_per_category < self.templates_per_category:
            raise ValueError("motifs.max_per_category must be >= motifs.templates_per_category")
        # the cosine distance of two non-negative unit vectors lies in [0, 1]
        if not 0.0 <= self.min_separation <= 1.0:
            raise ValueError("motifs.min_separation must be in [0, 1]")


@dataclass(frozen=True)
class MotifLibrary:
    """The motifs of every category over one operator order, and the settings that refine them."""

    motifs: tuple[Motif, ...]
    registry_ops: tuple[str, ...]
    config: MotifConfig = MotifConfig()
    frozen: bool = False

    def in_category(self, category: str) -> tuple[Motif, ...]:
        return tuple(m for m in self.motifs if m.category == category)

    def categories(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for m in self.motifs:
            seen.setdefault(m.category, None)
        return tuple(seen)

    def freeze(self) -> "MotifLibrary":
        return replace(self, frozen=True)


def cosine_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    na = float(np.linalg.norm(av))
    nb = float(np.linalg.norm(bv))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity of a zero vector is undefined")
    return float(np.dot(av, bv) / (na * nb))


def _normalize(vec: np.ndarray) -> np.ndarray:
    return vec / np.linalg.norm(vec)


def score_pattern(state: WorkflowState, category: str, lib: MotifLibrary) -> float:
    """Best cosine match against the category's motifs; 0.5 with no evidence."""
    motifs = lib.in_category(category)
    if not motifs:
        return 0.5
    counts = state.operator_histogram
    hist = np.array([float(counts.get(op, 0)) for op in lib.registry_ops])
    if not hist.any():
        return 0.5
    hist = _normalize(hist)
    best = max(float(np.dot(hist, np.asarray(m.vector))) for m in motifs)
    return min(1.0, max(0.0, best))


def init_templates(
    categories: Sequence[str],
    config: MotifConfig,
    *,
    registry_ops: Sequence[str],
    seed: int = 42,
) -> MotifLibrary:
    """Seeded generation of well-spread baseline template directions:
    `config.templates_per_category` per category, each at least
    `config.min_separation` from the others. The library holds `config`."""
    templates_per_category, min_separation = config.templates_per_category, config.min_separation
    if not 10 <= templates_per_category <= 15:
        raise ValueError("templates_per_category must lie in [10, 15]")
    dim = len(registry_ops)
    rng = np.random.default_rng(seed)
    motifs: list[Motif] = []
    for category in categories:
        accepted: list[np.ndarray] = []
        attempts = 0
        while len(accepted) < templates_per_category:
            attempts += 1
            if attempts > 2000 * templates_per_category:
                raise MotifInitError(
                    f"cannot place {templates_per_category} templates at "
                    f"separation {min_separation} in dimension {dim}"
                )
            support = int(rng.integers(1, dim + 1))
            idx = rng.choice(dim, size=support, replace=False)
            vec = np.zeros(dim)
            vec[idx] = rng.random(support) + 0.05
            vec = _normalize(vec)
            if all(1.0 - float(np.dot(vec, prev)) >= min_separation for prev in accepted):
                accepted.append(vec)
        motifs.extend(
            Motif(category, tuple(float(x) for x in vec), "baseline_template")
            for vec in accepted
        )
    return MotifLibrary(motifs=tuple(motifs), registry_ops=tuple(registry_ops), config=config)


def _farthest_point_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = [int(rng.integers(len(points)))]
    while len(centers) < k:
        sims = points @ points[centers].T            # (n, chosen)
        min_dist = 1.0 - sims.max(axis=1)
        min_dist[centers] = -1.0
        centers.append(int(np.argmax(min_dist)))
    return points[centers].copy()


# Lloyd iterations of spherical k-means before it stops without converging
KMEANS_MAX_ITER = 50


def _kmeans_cosine(points: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Spherical k-means on unit vectors; returns (centers, cluster sizes)."""
    centers = _farthest_point_init(points, k, rng)
    labels = np.full(len(points), -1)
    for _ in range(KMEANS_MAX_ITER):
        sims = points @ centers.T
        new_labels = np.argmax(sims, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = points[labels == j]
            if len(members):
                mean = members.mean(axis=0)
                norm = np.linalg.norm(mean)
                if norm > 0:
                    centers[j] = mean / norm
    sizes = np.bincount(labels, minlength=k)
    return centers, sizes


def refine(
    lib: MotifLibrary,
    observed_histograms: Iterable[tuple[str, Sequence[float]]],
    round_index: int,
    seed: int,
) -> MotifLibrary:
    """Cluster observed histograms per category and merge centroids.

    Centroids are merged greedily in cluster-size order. A centroid within
    min_separation of an existing clustered motif is discarded; baselines it
    crowds out are replaced. Returns a new library value.
    """
    if lib.frozen:
        raise FrozenLibraryError("refine called on a frozen motif library")
    config = lib.config
    if round_index % config.refinement_period != 0:
        raise ValueError(
            f"round {round_index} is not on the refinement schedule "
            f"(period {config.refinement_period})"
        )

    by_category: dict[str, list[np.ndarray]] = {}
    for category, vec in observed_histograms:
        arr = np.asarray(vec, dtype=float)
        if arr.shape != (len(lib.registry_ops),):
            raise ValueError("histogram dimension does not match the registry")
        norm = np.linalg.norm(arr)
        if norm == 0.0:
            continue
        by_category.setdefault(category, []).append(arr / norm)

    motifs = list(lib.motifs)
    rng = np.random.default_rng(seed)
    for category in sorted(by_category):
        samples = np.stack(by_category[category])
        k = min(config.cluster_count_per_category, len(samples))
        centers, sizes = _kmeans_cosine(samples, k, rng)
        order = sorted(range(k), key=lambda j: (-int(sizes[j]), j))
        for j in order:
            if sizes[j] == 0:
                continue
            candidate = centers[j]
            kept = [m for m in motifs if m.category == category]
            close = [
                m for m in kept
                if 1.0 - float(np.dot(candidate, np.asarray(m.vector))) < config.min_separation
            ]
            if any(m.origin == "clustered" for m in close):
                continue
            # every close motif is a baseline now; at the cap one must make room
            if len(kept) >= config.max_per_category and not close:
                continue
            for m in close:
                motifs.remove(m)
            motifs.append(Motif(category, tuple(float(x) for x in candidate), "clustered"))
    return replace(lib, motifs=tuple(motifs))


# ---------------------------------------------------------------------------
# Persistence.
# ---------------------------------------------------------------------------

def library_to_dict(lib: MotifLibrary) -> dict:
    categories = []
    for category in lib.categories():
        categories.append(
            {
                "name": category,
                "motifs": [
                    {"vector": list(m.vector), "origin": m.origin}
                    for m in lib.in_category(category)
                ],
            }
        )
    return {
        "version": LIBRARY_FORMAT_VERSION,
        "registry": list(lib.registry_ops),
        "categories": categories,
        "frozen": lib.frozen,
        "params": {
            "refinement_period": lib.config.refinement_period,
            "cluster_count_per_category": lib.config.cluster_count_per_category,
            "min_separation": lib.config.min_separation,
            "max_per_category": lib.config.max_per_category,
        },
    }


def save_library(lib: MotifLibrary, path: str | Path) -> None:
    Path(path).write_text(json.dumps(library_to_dict(lib), sort_keys=True, indent=2) + "\n")
