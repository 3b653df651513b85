"""bamsim: admission control for emulated MPLS LSPs under per-class
bandwidth allocation models (MAM and RDM), with runtime hard/soft
constraint reconfiguration and a discrete-event scenario runner.

``Lsp`` changed shape: it is an immutable record ``(id, class_index,
demand_kbps, path, src_host, admit_time)``, active exactly while
``NetworkState.active_lsps`` holds it.  The mutable ``dst_host``, ``state``
and ``end_time`` fields are gone, and so are ``NotActive`` and the
``Requested`` and ``Active`` members of ``LspState``; ``release`` takes no
``now``."""

from .bam import (
    AdmissionDecision,
    Infeasible,
    ReconfigEvent,
    ReconfigMode,
    Verdict,
    decide,
    promote_pending_if_clear,
    reconfigure,
    select_victims,
)
from .controller import (
    ClassificationFailure,
    Classifier,
    Controller,
    LspRequest,
)
from .core import (
    BcConfig,
    CapacityViolation,
    InvalidBc,
    Link,
    Lsp,
    LspState,
    Model,
    NetworkState,
    NoRoute,
    Topology,
    TrafficClass,
    UnknownLsp,
    commit,
    kbps,
    mbps,
    release,
)
from .fabric import Fabric, FlowMatch, FlowRule, RuleConflict, UnknownSwitch
from .metrics import MetricsLog, MetricsRecord, RateUndefined
from .scenario import (
    ParseError,
    Scenario,
    ScenarioError,
    ValidationError,
    load,
    parse_file,
    parse_text,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissionDecision",
    "BcConfig",
    "CapacityViolation",
    "ClassificationFailure",
    "Classifier",
    "Controller",
    "Fabric",
    "FlowMatch",
    "FlowRule",
    "Infeasible",
    "InvalidBc",
    "Link",
    "Lsp",
    "LspRequest",
    "LspState",
    "MetricsLog",
    "MetricsRecord",
    "Model",
    "NetworkState",
    "NoRoute",
    "ParseError",
    "RateUndefined",
    "ReconfigEvent",
    "ReconfigMode",
    "RuleConflict",
    "Scenario",
    "ScenarioError",
    "Topology",
    "TrafficClass",
    "UnknownLsp",
    "UnknownSwitch",
    "ValidationError",
    "Verdict",
    "commit",
    "decide",
    "kbps",
    "load",
    "mbps",
    "parse_file",
    "parse_text",
    "promote_pending_if_clear",
    "reconfigure",
    "release",
    "select_victims",
    "simulate",
    "__version__",
]
