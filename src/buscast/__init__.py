"""buscast: per-service bus ridership forecasting.

A joint multi-branch LSTM (one branch per stop, one shared dense head)
predicts ridership one service ahead at every stop of a route, from past
counts plus calendar and weather features. The package also ships the
per-stop and historical-mean baselines it is compared against, Hyperband
hyperparameter search, and an RMSE evaluation harness.
"""

from .data_ingest import (
    RidershipColumns,
    RouteDataset,
    ServiceWeatherColumns,
    WeatherCategory,
    WeatherColumns,
    build_route_dataset,
    join_weather_to_services,
    parse_ridership_csv,
    parse_weather_csv,
)
from .errors import BuscastError
from .evaluation import (
    CorrelationMatrix,
    EvalReport,
    correlation_matrix,
    evaluate_method,
    evaluate_methods,
    fit_methods,
    improvement_report,
    rmse,
)
from .features import (
    FeatureSpec,
    ScalerParams,
    build_windows,
    chronological_split,
    fit_scaler,
    prepare_windows,
    scale,
)
from .models import (
    LstmForecaster,
    LstmRegressor,
    MethodId,
    StatisticalBaseline,
    build_model,
    fit_statistical,
    load_model,
    method_spec,
    predict_next_service,
    save_model,
    train,
)
from .tuning import HyperParams, HyperbandSchedule, make_schedule, run_hyperband, sample_config

__version__ = "0.1.0"
