"""Character-level LSTM language modeling with surprisal-driven adaptive zoneout."""

from .cell import (
    GATES,
    PARAM_KEYS,
    VARIANTS,
    FrozenStep,
    GradientSet,
    ModelParams,
    RecurrentState,
    StepCache,
    backward_step,
    backward_window,
    cell_update,
    cross_entropy_bpc,
    forward_step,
    fuse_gate_weights,
    gate_forward,
    hidden_from_cell,
    prediction_error,
    surprisal_vector,
    zoneout_rate,
)
from .numerics import (
    DTYPES,
    NumericalError,
    RngState,
    matmul,
    one_hot,
    sample_bernoulli,
    sigmoid,
    softmax_rows,
    tanh,
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
    record_step,
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
