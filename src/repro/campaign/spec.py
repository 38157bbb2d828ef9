"""Declarative campaign model: parameter grids expanded to trials.

A :class:`Campaign` names a trial function (a ``"module:function"``
path, so specs survive pickling into worker processes), a parameter
grid, and a seed fan-out.  :meth:`Campaign.expand` turns it into a
deterministic list of :class:`TrialSpec`: the same campaign always
expands to the same trials with the same seeds and the same
content-addressed keys, which is what makes resuming and caching safe.

The trial key hashes *everything that could change the result*: the
campaign name, the trial-function path, the merged parameter point, the
trial seed, and a code-version digest of the whole ``repro`` package
(plus the trial's own module where it lives elsewhere) — one
``plan_trial`` runs every full-stack campaign, so the code that computes
a result is the stack under it, and editing any of it invalidates old
cache entries instead of silently serving stale results.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.sim.rng import SeedSequence


def canonical_json(obj: Any) -> str:
    """Stable JSON encoding (sorted keys, no whitespace) for hashing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def resolve_trial(path: str) -> Callable[[Dict[str, Any], int], Any]:
    """Import and return the trial function named by ``module:function``."""
    module_name, _, func_name = path.partition(":")
    if not module_name or not func_name:
        raise ValueError(f"trial path must look like 'pkg.module:function': {path!r}")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, func_name)
    except AttributeError:
        raise ValueError(f"{module_name} has no function {func_name!r}") from None


def package_sources() -> List[Path]:
    """Every ``*.py`` of the ``repro`` package, sorted."""
    import repro

    return sorted(Path(repro.__file__).parent.rglob("*.py"))


def code_version(trial: str) -> str:
    """Digest of the package version, every source file of the package
    and the trial function's module when it lives outside it.

    Editing any of them (or bumping the package) changes every trial
    key, forcing re-execution: a trial's result is computed by the whole
    stack under it, not by the module that names it.
    """
    import repro

    sources = package_sources()
    module = importlib.import_module(trial.partition(":")[0])
    source_file = getattr(module, "__file__", None)
    if source_file and Path(source_file) not in sources:
        sources.append(Path(source_file))
    digest = hashlib.sha256()
    digest.update(repro.__version__.encode("utf-8"))
    for path in sources:
        digest.update(path.name.encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def trial_key(
    campaign: str,
    trial: str,
    params: Mapping[str, Any],
    seed: int,
    version: str,
) -> str:
    """Content address of one trial: sha256 over the canonical config."""
    payload = canonical_json(
        {
            "campaign": campaign,
            "trial": trial,
            "params": dict(params),
            "seed": seed,
            "code": version,
        }
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TrialSpec:
    """One fully-resolved trial: parameters, seed, and cache key."""

    campaign: str
    trial: str
    index: int
    params: Mapping[str, Any]
    seed: int
    key: str

    def run(self) -> Any:
        """Execute the trial in-process (serial mode / debugging)."""
        return resolve_trial(self.trial)(dict(self.params), self.seed)


@dataclass
class Campaign:
    """A declarative experiment sweep.

    ``grid`` maps parameter names to the values to cross; ``fixed``
    holds parameters shared by every trial.  Each grid point is run
    ``replicates`` times with seeds derived from ``root_seed`` through
    :class:`SeedSequence` (or taken verbatim from ``seeds`` when paper
    tables pin them).  Parameter values must be JSON-serializable.
    """

    name: str
    trial: str
    grid: Dict[str, Sequence[Any]] = field(default_factory=dict)
    fixed: Dict[str, Any] = field(default_factory=dict)
    replicates: int = 1
    root_seed: int = 1
    seeds: Optional[Sequence[int]] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        overlap = set(self.grid) & set(self.fixed)
        if overlap:
            raise ValueError(f"params both fixed and swept: {sorted(overlap)}")

    @property
    def trial_seeds(self) -> List[Optional[int]]:
        if self.seeds is not None:
            return list(self.seeds)
        return [None] * self.replicates

    def expand(self) -> List[TrialSpec]:
        """The deterministic trial list this campaign denotes."""
        names = sorted(self.grid)
        sequence = SeedSequence(self.root_seed)
        version = code_version(self.trial)
        specs: List[TrialSpec] = []
        for combo in itertools.product(*(self.grid[name] for name in names)):
            point = dict(self.fixed)
            point.update(zip(names, combo))
            for replicate, pinned in enumerate(self.trial_seeds):
                if pinned is not None:
                    seed = pinned
                else:
                    label = f"{canonical_json(point)}#r{replicate}"
                    seed = sequence.child(label).root_seed
                specs.append(
                    TrialSpec(
                        campaign=self.name,
                        trial=self.trial,
                        index=len(specs),
                        params=point,
                        seed=seed,
                        key=trial_key(self.name, self.trial, point, seed, version),
                    )
                )
        return specs
