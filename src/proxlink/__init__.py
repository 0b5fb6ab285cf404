"""proxlink: predict future co-publication between author pairs from
geographical, network, cognitive, and institutional proximity features.
"""

__version__ = "0.1.0"

from .corpus import (  # noqa: F401
    Corpus,
    CorpusConfig,
    PublicationRecord,
    author_key_of,
    load_corpus,
    scenario_filter,
)
from .geo import (  # noqa: F401
    EARTH_RADIUS_KM,
    AdjacencyTable,
    GeocodeCache,
    GeoPoint,
    RegionTags,
    geocode,
    haversine_km,
)
from .network import (  # noqa: F401
    CoPubGraph,
    SamplingPolicy,
    WindowPair,
    build_graph,
    candidate_pairs,
    make_windows,
    tenb,
)
from .topics import (  # noqa: F401
    GibbsLda,
    TokenizedDoc,
    coherence,
    knowledge_vector,
    porter_stem,
    select_k,
    tokenize,
)
from .features import (  # noqa: F401
    Dataset,
    GeoContext,
    assemble,
    correlation_screen,
    describe,
)
from .logit import (  # noqa: F401
    LogisticIRLS,
    LogitFit,
    effect_pct,
    pseudo_r2,
    tenb_elasticity_curve,
)
from .explain import (  # noqa: F401
    ShapleyExplanation,
    beeswarm_export,
    exact_shapley,
    explain_rows,
    sample_background,
)
from .pipeline import RunConfig, run_pipeline  # noqa: F401
