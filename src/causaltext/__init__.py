"""Generation of natural-language corpora with ground-truth causal graphs,
plus the metrics and statistics used to evaluate them."""

import os

# Every matrix the package multiplies is small, so a BLAS thread pool only
# costs start-up work on other cores, some of it after the import returns.
# This takes effect only if numpy is not loaded yet, and an explicit setting
# wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .assignment import (
    ConceptAssignment,
    LoopConfig,
    LoopResult,
    analyze_causal_structure,
    counterfactual_verification,
    fallacy_analysis,
    initial_assignment,
    quantify_mismatch,
    refine_assignment,
    run_loop,
)
from .consensus import RatingMatrix, flag_low_agreement, krippendorff_alpha, majority_consensus
from .gateway import (
    BackendProfile,
    Gateway,
    HttpBackend,
    OracleMockBackend,
    PromptTemplate,
    ResponseCache,
    ScriptedMockBackend,
    UsageLedger,
    build_payload,
    load_template,
    make_cache_key,
    render_prompt,
)
from .graphs import Dag, GraphSpec, MotifReport, is_acyclic, sample_dag, sample_spec_space
from .metrics import (
    MetricReport,
    SupportGraph,
    decompose_errors,
    edge_prf,
    project_dag,
    shd,
    sid,
)
from .store import RunManifest, SampleRecord, SampleStore
from .textgen import (
    GenIdConfig,
    Paragraph,
    extract_concepts,
    gen_id_refine,
    generate_text,
    llm_causal_discovery,
)
from .transfer import (
    AgreementStats,
    ScoreTable,
    StabilityReport,
    agreement,
    benjamini_hochberg,
    center_within_n,
    leave_one_out,
    permutation_anova,
    stability_curve,
)

__version__ = "0.1.0"
