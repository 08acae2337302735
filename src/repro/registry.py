"""Declarative component registry: one spec format for every estimator.

Every public component — clusterers, RBM variants, preprocessors, the
encoding framework and the pipelines — is registered here under a
``(kind, name)`` key.  A *spec* is a JSON-friendly description of one
configured component::

    {"kind": "clusterer", "type": "kmeans", "params": {"n_clusters": 3}}

``kind`` may be omitted when the type name is unambiguous, ``params`` may be
omitted for defaults, and a bare string (``"kmeans"``) is shorthand for a
spec with no parameters.  Parameter values that are themselves specs (dicts
with a ``"type"`` key, or ``["name", spec]`` pairs inside lists) are built
recursively, so nested estimators — pipeline steps, stacked encoders — are
expressible as plain JSON.  Configs, artifact bundles and experiment grids
all use this one format.

Registration is *lazy*: the table below names classes by import path, so
importing :mod:`repro.registry` pulls in no heavy modules and no import
cycles; a class is resolved on first use.

Examples
--------
>>> from repro import registry
>>> registry.build({"type": "kmeans", "params": {"n_clusters": 3}})
KMeans(...)
>>> registry.build("dp")
DensityPeaks(...)
>>> registry.available("model")
('grbm', 'rbm', 'sls_grbm', 'sls_rbm')
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "ComponentRegistry",
    "REGISTRY",
    "register",
    "get_class",
    "build",
    "build_clusterer",
    "available",
    "kinds",
    "spec_of",
]


@dataclass
class _Entry:
    """One registered component (class resolved lazily from its import path)."""

    kind: str
    name: str
    module: str
    attr: str
    aliases: tuple[str, ...] = ()
    _cls: type | None = field(default=None, repr=False)

    def resolve(self) -> type:
        if self._cls is None:
            self._cls = getattr(importlib.import_module(self.module), self.attr)
        return self._cls


def _jsonable(value):
    """Convert one parameter value to a JSON-friendly representation."""
    if isinstance(value, np.dtype):
        return value.name
    if isinstance(value, (np.random.Generator, np.random.BitGenerator)):
        # A live generator cannot be round-tripped through JSON; specs drop
        # it to None, exactly like BaseRBM.get_config does for persistence.
        return None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if hasattr(value, "as_dict"):  # FrameworkConfig and friends
        return _jsonable(value.as_dict())
    return value


class ComponentRegistry:
    """Typed mapping of ``(kind, name)`` to estimator classes.

    Components are usually registered declaratively by import path (see the
    table at the bottom of this module) but :meth:`register` also accepts a
    class directly, including as a decorator::

        @REGISTRY.register("clusterer", "dbscan")
        class DBSCAN(BaseClusterer): ...
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], _Entry] = {}
        self._alias_index: dict[str, tuple[str, str]] = {}

    # ------------------------------------------------------------ registration
    def register(
        self,
        kind: str,
        name: str,
        component: type | str | None = None,
        *,
        aliases: tuple[str, ...] = (),
        overwrite: bool = False,
    ):
        """Register a component class under ``(kind, name)``.

        ``component`` is either a class, an ``"import.path:ClassName"``
        string (resolved lazily), or omitted to use the method as a class
        decorator.  ``aliases`` are alternative names accepted by
        :meth:`build` and :meth:`get_class`.
        """
        if component is None:
            def decorator(cls):
                self.register(kind, name, cls, aliases=aliases, overwrite=overwrite)
                return cls

            return decorator

        key = (str(kind), str(name).lower())
        if key in self._entries and not overwrite:
            raise ValidationError(
                f"component {key[1]!r} is already registered under kind {kind!r}"
            )
        if isinstance(component, str):
            module, _, attr = component.partition(":")
            if not module or not attr:
                raise ValidationError(
                    f"component path must look like 'module:Class', got {component!r}"
                )
            entry = _Entry(kind=key[0], name=key[1], module=module, attr=attr,
                           aliases=tuple(a.lower() for a in aliases))
        else:
            entry = _Entry(
                kind=key[0],
                name=key[1],
                module=component.__module__,
                attr=component.__qualname__,
                aliases=tuple(a.lower() for a in aliases),
                _cls=component,
            )
        self._entries[key] = entry
        for alias in (key[1], *entry.aliases):
            self._alias_index[f"{key[0]}/{alias}"] = key
        return component

    # ------------------------------------------------------------------ lookup
    def _resolve_key(self, name: str, kind: str | None) -> tuple[str, str]:
        token = str(name).strip().lower()
        if "/" in token and kind is None:
            kind, _, token = token.partition("/")
        if kind is not None:
            key = self._alias_index.get(f"{kind}/{token}")
            if key is None:
                raise ValidationError(
                    f"unknown {kind} component {name!r}; "
                    f"available: {sorted(self.available(kind))}"
                )
            return key
        matches = {
            key for alias, key in self._alias_index.items()
            if alias.split("/", 1)[1] == token
        }
        if not matches:
            raise ValidationError(
                f"unknown component {name!r}; available: "
                + ", ".join(
                    f"{k}/{n}" for k, n in sorted(self._entries)
                )
            )
        if len(matches) > 1:
            raise ValidationError(
                f"component name {name!r} is ambiguous across kinds "
                f"{sorted(key[0] for key in matches)}; qualify it as "
                f"'<kind>/{token}' or pass kind="
            )
        return next(iter(matches))

    def get_class(self, name: str, *, kind: str | None = None) -> type:
        """The registered class for ``name`` (optionally scoped by ``kind``)."""
        return self._entries[self._resolve_key(name, kind)].resolve()

    def kind_of(self, estimator_or_class) -> tuple[str, str]:
        """The ``(kind, canonical_name)`` a class (or instance) is registered
        under."""
        cls = (
            estimator_or_class
            if isinstance(estimator_or_class, type)
            else type(estimator_or_class)
        )
        for key, entry in self._entries.items():
            if entry._cls is cls or (
                entry.module == cls.__module__ and entry.attr == cls.__qualname__
            ):
                return key
        raise ValidationError(f"{cls.__name__} is not a registered component")

    def available(self, kind: str | None = None):
        """Canonical component names of one kind, or ``{kind: names}`` for all."""
        if kind is None:
            table: dict[str, tuple[str, ...]] = {}
            for entry_kind, name in sorted(self._entries):
                table.setdefault(entry_kind, ())
                table[entry_kind] += (name,)
            return table
        names = tuple(
            sorted(name for entry_kind, name in self._entries if entry_kind == kind)
        )
        if not names:
            raise ValidationError(
                f"unknown component kind {kind!r}; kinds: {sorted(self.kinds())}"
            )
        return names

    def kinds(self) -> tuple[str, ...]:
        """All registered component kinds."""
        return tuple(sorted({kind for kind, _ in self._entries}))

    # ------------------------------------------------------------------- build
    def build(self, spec, *, kind: str | None = None, **overrides):
        """Instantiate a component from its spec.

        Parameters
        ----------
        spec : str or dict
            A component name, or a dict with ``"type"`` and optional
            ``"kind"`` / ``"params"`` entries.  Parameter values that are
            themselves specs are built recursively.
        kind : str, optional
            Restrict the lookup to one component kind (needed only when a
            name exists under several kinds).
        **overrides
            Parameters merged over the spec's ``params``.
        """
        if isinstance(spec, str):
            spec = {"type": spec}
        if not isinstance(spec, dict):
            raise ValidationError(
                f"spec must be a name or a dict, got {type(spec).__name__}"
            )
        if "type" not in spec:
            raise ValidationError(f"spec {spec!r} has no 'type' entry")
        extra = set(spec) - {"type", "kind", "params", "name"}
        if extra:
            raise ValidationError(
                f"unknown spec entries {sorted(extra)}; expected "
                "'type', 'kind', 'params'"
            )
        cls = self.get_class(spec["type"], kind=spec.get("kind", kind))
        params = dict(spec.get("params") or {})
        params.update(overrides)
        built = {key: self._build_value(value) for key, value in params.items()}
        return cls(**built)

    def _build_value(self, value):
        """Recursively build nested specs inside a parameter value."""
        if isinstance(value, dict) and "type" in value:
            return self.build(value)
        if isinstance(value, (list, tuple)):
            items = []
            for item in value:
                if (
                    isinstance(item, (list, tuple))
                    and len(item) == 2
                    and isinstance(item[0], str)
                    and isinstance(item[1], dict)
                    and "type" in item[1]
                ):
                    items.append((item[0], self.build(item[1])))
                else:
                    items.append(self._build_value(item))
            return type(value)(items) if isinstance(value, tuple) else items
        return value

    # ------------------------------------------------------------------- specs
    def spec_of(self, estimator, *, include_kind: bool = True) -> dict:
        """The JSON-friendly spec reproducing ``estimator`` (unfitted).

        Inverse of :meth:`build`: ``build(spec_of(e))`` constructs an
        estimator with identical parameters.
        """
        kind, name = self.kind_of(estimator)
        params = {}
        for key, value in estimator.get_params(deep=False).items():
            params[key] = self._spec_value(value)
        spec = {"type": name, "params": params}
        if include_kind:
            spec = {"kind": kind, **spec}
        return spec

    def _spec_value(self, value):
        if hasattr(value, "get_params") and not isinstance(value, type):
            try:
                return self.spec_of(value, include_kind=False)
            except ValidationError:
                return value
        if isinstance(value, (list, tuple)):
            items = []
            for item in value:
                if (
                    isinstance(item, tuple)
                    and len(item) == 2
                    and isinstance(item[0], str)
                    and hasattr(item[1], "get_params")
                ):
                    items.append([item[0], self._spec_value(item[1])])
                else:
                    items.append(self._spec_value(item))
            return items
        return _jsonable(value)


#: The process-wide default registry with every built-in component.
REGISTRY = ComponentRegistry()

_BUILTIN_COMPONENTS = (
    # kind, name, import path, aliases
    ("clusterer", "kmeans", "repro.clustering.kmeans:KMeans", ("k-means",)),
    ("clusterer", "minibatch_kmeans", "repro.clustering.minibatch_kmeans:MiniBatchKMeans",
     ("mbkmeans", "mini-batch-k-means")),
    ("clusterer", "ap", "repro.clustering.affinity_propagation:AffinityPropagation",
     ("affinity_propagation",)),
    ("clusterer", "dp", "repro.clustering.density_peaks:DensityPeaks",
     ("density_peaks",)),
    ("clusterer", "agglomerative", "repro.clustering.hierarchical:AgglomerativeClustering",
     ("hierarchical",)),
    ("clusterer", "spectral", "repro.clustering.spectral:SpectralClustering", ()),
    ("model", "rbm", "repro.rbm.rbm:BernoulliRBM", ("bernoulli_rbm",)),
    ("model", "grbm", "repro.rbm.grbm:GaussianRBM", ("gaussian_rbm",)),
    ("model", "sls_rbm", "repro.rbm.sls_rbm:SlsRBM", ("slsrbm",)),
    ("model", "sls_grbm", "repro.rbm.sls_grbm:SlsGRBM", ("slsgrbm",)),
    ("preprocessor", "standardize", "repro.core.transformers:Standardize", ()),
    ("preprocessor", "minmax", "repro.core.transformers:MinMaxScale", ()),
    ("preprocessor", "median_binarize", "repro.core.transformers:MedianBinarize", ()),
    ("preprocessor", "identity", "repro.core.transformers:IdentityTransform", ("none",)),
    ("framework", "framework", "repro.core.framework:SelfLearningEncodingFramework",
     ("sls_framework",)),
    ("pipeline", "pipeline", "repro.core.pipeline:Pipeline", ()),
    ("pipeline", "clustering_pipeline", "repro.core.pipeline:ClusteringPipeline", ()),
)

for _kind, _name, _path, _aliases in _BUILTIN_COMPONENTS:
    REGISTRY.register(_kind, _name, _path, aliases=_aliases)


# ------------------------------------------------------- module-level facade
register = REGISTRY.register
get_class = REGISTRY.get_class
build = REGISTRY.build
available = REGISTRY.available
kinds = REGISTRY.kinds
kind_of = REGISTRY.kind_of
spec_of = REGISTRY.spec_of


def build_clusterer(name: str, n_clusters: int, *, random_state=None):
    """Build a clusterer by short name with a uniform ``(n_clusters, seed)``
    interface.

    The clusterers do not all share constructor parameters — Affinity
    Propagation targets a cluster count through its ``target_n_clusters``
    preference tuning, and the deterministic algorithms take no seed — so
    this adapter translates the uniform call into the right spec.
    """
    key = str(name).strip().lower()
    cls = REGISTRY.get_class(key, kind="clusterer")
    params: dict = {}
    names = cls._get_param_names()
    if "target_n_clusters" in names:  # AffinityPropagation
        params["target_n_clusters"] = n_clusters
    elif "n_clusters" in names:
        params["n_clusters"] = n_clusters
    if "random_state" in names:
        params["random_state"] = random_state
    return cls(**params)
