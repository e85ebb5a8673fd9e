"""Character-level LSTM language modeling with surprisal-driven adaptive zoneout."""

from .cell import (
    GATES,
    PARAM_KEYS,
    VARIANTS,
    GradientSet,
    ModelParams,
    RecurrentState,
    StepCache,
    backward_window,
    cell_update,
    cross_entropy_bpc,
    fuse_gate_weights,
    gate_forward,
    hidden_from_cell,
    prediction_error,
    run_lanes,
    surprisal_vector,
    zoneout_rate,
)
from .numerics import (
    DTYPES,
    NumericalError,
    RngState,
    matmul,
    sample_bernoulli,
    softmax_rows,
)
from .optim import AdadeltaState, adadelta_step, clip_gradients, xavier_init
from .gradcheck import (
    GradReport,
    compare_gradients,
    numerical_gradient,
    tiny_window_check,
)
from .trace import (
    TraceBuffer,
    cell_change_stats,
    export_cell_change,
    export_gate_map,
    trace_stream,
)
from .training import (
    Checkpoint,
    Corpus,
    TrainConfig,
    TrainResult,
    evaluate_bpc,
    init_model,
    load_checkpoint,
    load_corpus,
    run_tbptt_window,
    sample_training_chunks,
    save_checkpoint,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
