"""Experiment harnesses: one registered experiment per paper table/figure.

Importing this package registers every experiment with
:mod:`repro.pipeline.registry`; run one with
``get_experiment(name).run(ctx, **params)`` (or ``python -m repro run
NAME``).  Each returns an :class:`repro.experiments.runner.ExperimentResult`
whose rows are the same quantities the paper's table or figure reports.
"""

# Imported for their @register_experiment side effect, in paper order.
from . import fig01_training_time  # noqa: F401
from . import fig04_utilization  # noqa: F401
from . import fig06_index_distance  # noqa: F401
from . import fig07_locality  # noqa: F401
from . import fig09_bank_conflicts  # noqa: F401
from . import fig10_parallelism  # noqa: F401
from . import fig11_speedup_energy  # noqa: F401
from . import fig12_cache_hit_rate  # noqa: F401
from . import fig13_occupancy_traffic  # noqa: F401
from . import fig14_serving_latency  # noqa: F401
from . import fig15_embedding_locality  # noqa: F401
from . import tab01_gpu_specs  # noqa: F401
from . import tab02_step_sizes  # noqa: F401
from . import tab03_accel_config  # noqa: F401
from . import tab04_psnr  # noqa: F401
from . import tab05_psnr_precision  # noqa: F401
from .runner import ExperimentResult, format_series, format_table
from .tab04_psnr import QualityRunConfig
from .tab05_psnr_precision import PrecisionRunConfig

__all__ = [
    "ExperimentResult",
    "format_series",
    "format_table",
    "QualityRunConfig",
    "PrecisionRunConfig",
]
