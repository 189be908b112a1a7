"""Virtual flow metering under drift: models, passive learning, detection.

Seven predictor families (naive previous-value, linear, feedforward network,
multi-task residual network, mechanistic choke, and two hybrids) are fitted by
MAP estimation and then kept current on a nonstationary stream either by
periodic batch refits or by per-observation online updates.  A Hotelling-type
two-sample scan estimates how often retraining is needed, and prequential
logs feed MAPE/rolling-error reports.

The numeric kernels (:mod:`vfmlab.kernels`) are plain Python over numpy.
"""

from .core import (DataSplit, FeatureScaler, IngestReport, Observation, Source,
                   WellDataset, chronological_split, fit_scaler, ingest_csv,
                   ingest_csv_report, substream, write_csv)
from .diff import GradientVector, loss_gradient
from .drift import (DriftConfig, ShiftReport, estimate_update_frequency, f_cdf,
                    f_quantile, hotelling_t2, write_shift_csv)
from .errors import (ConfigError, DataError, DegenerateFeatureError,
                     EmptyDatasetError, GradientError, NumericError,
                     ScenarioError, SchemaError, VfmlabError)
from .learning import (PredictionLog, ScheduleConfig, read_log, run_ol,
                       run_pbl, run_schedule, write_log)
from .metrics import (MetricReport, SummaryTable, mape, mape_details,
                      metric_report, rolling_mae, summarize, write_excluded_csv,
                      write_rolling_csv, write_summary_csv)
from .models import (ChokeGeometry, MechanisticParams, ModelKind, ModelSpec,
                     MtlParams, NetworkShape, ParameterSet, effective_area,
                     init_model, load_model, predict, save_model)
from .optim import (EarlyStoppingConfig, LossSpec, Method, OptimizerConfig,
                    OptimizerState, PriorMode, fit_map, grid_search, map_loss,
                    optimizer_step, prior_loss_and_grad)
from .synth import WellScenario, generate_stream, stationarity_probe
from .config import ScheduleSpec, StudyConfig, load_config, save_config

__version__ = "0.1.0"

# Kernels are never compiled.  bench/envinfo.py records this value as the
# kernel lane of every benchmark run; the constant goes with the next change
# to the benchmark.
NUMBA_ENABLED = False
