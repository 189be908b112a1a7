"""Golden bytes of the four column writers: a well CSV, a prediction log with
its sidecar, a rolling-error CSV and a shift CSV.

The expected bytes below were written by the row-at-a-time writers these
replaced, on the same inputs; every writer must keep writing them.  The
inputs cover a non-integer timestamp, a timestamp past 2**53, NaN and
infinite values, a -0.0, a well-test row, model versions above 0, integral
values that print without a mantissa and an empty log.
"""

import numpy as np

from vfmlab import MetricReport, PredictionLog, ShiftReport, WellDataset
from vfmlab.core import write_csv
from vfmlab.drift import write_shift_csv
from vfmlab.learning import write_log
from vfmlab.metrics import write_rolling_csv

NAN, INF = float("nan"), float("inf")


def _wells():
    one = WellDataset(
        t=[100.0, 100.5, 3600.0, 2.0**60],
        X=[[0.5, 15000000.0, 9000000.0, 350.0, 0.3, 0.5],
           [-0.0, 1.5e7, 9.0e6, 349.25, 0.1, 0.0],
           [1.0, 2.0**53, 1e-7, 350.0, NAN, 0.2],
           [0.25, 1e17, 123456.789, INF, 0.3, 0.3]],
        y=[55.5, 0.0, -0.0, 1.0 / 3.0],
        source=[0, 1, 0, 1],
        well=[1, 1, 1, 1],
    )
    two = WellDataset(
        t=[100.0, 5000.0],
        X=[[0.75, 1.2e7, 8e6, 340.0, 0.2, 0.4],
           [0.5, 1.3e7, 7e6, 341.5, 0.25, 0.45]],
        y=[12.0, 2.0**53 + 2.0],
        source=[1, 0],
        well=[2, 2],
    )
    return [one, two]


def _log():
    return PredictionLog(
        t=np.array([0.0, 86400.0, 86400.25, 1.5e9, 2.0**60]),
        well=np.array([1, 2, 1, 2, 1], dtype=np.int64),
        y_true=np.array([100.0, 12.5, 0.0, 1.0 / 3.0, 7.0]),
        y_pred=np.array([NAN, INF, -0.0, -INF, 99.99999999999999]),
        model_version=np.array([0, 0, 3, 12, 7], dtype=np.int64),
        source=np.array([0, 1, 0, 1, 0], dtype=np.uint8),
        metadata={"kind": "lr", "n_updates": 3, "skipped_updates": [86400.25]},
    )


def _empty_log():
    z = np.zeros(0)
    return PredictionLog(t=z, well=np.zeros(0, dtype=np.int64), y_true=z, y_pred=z,
                         model_version=np.zeros(0, dtype=np.int64),
                         source=np.zeros(0, dtype=np.uint8), metadata={})


def _rolling():
    t = np.array([0.0, 0.5, 86400.0, 1e16 + 2.0])
    return MetricReport(per_well_mape={1: 1.0}, cross_well_mean=1.0, percentiles=(1.0,) * 5,
                        rolling_series=(t, np.array([1.0, 2.5, NAN, -0.0]),
                                        np.array([NAN, 0.1, 0.2, INF]),
                                        np.array([NAN, 0.3, 1e-300, 3.0])))


def _shift():
    return ShiftReport(t=np.array([10.0, 10.5, 2.0**53]),
                       ht2=np.array([0.0, 1.25, NAN]),
                       f_stat=np.array([-0.0, 2.0 / 3.0, INF]),
                       f_crit=np.array([3.1, 3.1, 3.0]),
                       detected=np.array([False, False, True]),
                       estimated_tau=0.5)


GOLDEN = {
    "wells.csv": (
        b'well_id,t,u,p1,p2,T1,eta_oil,eta_gas,q_total,source\r\n'
        b'1,100,0.5,15000000,9000000,350,0.3,0.5,55.5,MPFM\r\n'
        b'2,100,0.75,12000000,8000000,340,0.2,0.4,12,WellTest\r\n'
        b'1,100.5,0,15000000,9000000,349.25,0.1,0,0,WellTest\r\n'
        b'1,3600,1,9007199254740992.0,1e-07,350,nan,0.2,0,MPFM\r\n'
        b'2,5000,0.5,13000000,7000000,341.5,0.25,0.45,9007199254740994.0,MPFM\r\n'
        b'1,1.152921504606847e+18,0.25,1e+17,123456.789,inf,0.3,0.3,0.3333333333333333,WellTest\r\n'
    ),
    "log.csv": (
        b't,well_id,y_true,y_pred,model_version,source\n'
        b'0,1,100.0,nan,0,MPFM\n'
        b'86400,2,12.5,inf,0,WellTest\n'
        b'86400.25,1,0.0,-0.0,3,MPFM\n'
        b'1500000000,2,0.3333333333333333,-inf,12,WellTest\n'
        b'1152921504606846976,1,7.0,99.99999999999999,7,MPFM\n'
    ),
    "log.csv.meta.json": (
        b'{\n'
        b'  "kind": "lr",\n'
        b'  "n_updates": 3,\n'
        b'  "skipped_updates": [\n'
        b'    86400.25\n'
        b'  ]\n'
        b'}\n'
    ),
    "empty.csv": (
        b't,well_id,y_true,y_pred,model_version,source\n'
    ),
    "empty.csv.meta.json": (
        b'{}\n'
    ),
    "rolling.csv": (
        b't,rolling_mae,p25,p75\n'
        b'0,1.0,nan,nan\n'
        b'0.5,2.5,0.1,0.3\n'
        b'86400,nan,0.2,1e-300\n'
        b'10000000000000002,-0.0,inf,3.0\n'
    ),
    "shift.csv": (
        b't,ht2,f_stat,f_crit,detected\n'
        b'10,0.0,-0.0,3.1,0\n'
        b'10.5,1.25,0.6666666666666666,3.1,0\n'
        b'9007199254740992,nan,inf,3.0,1\n'
    ),
}


def test_write_csv_golden_bytes(tmp_path):
    path = tmp_path / "wells.csv"
    write_csv(path, _wells())
    assert path.read_bytes() == GOLDEN["wells.csv"]


def test_write_log_golden_bytes(tmp_path):
    path = tmp_path / "log.csv"
    write_log(_log(), path)
    assert path.read_bytes() == GOLDEN["log.csv"]
    assert (tmp_path / "log.csv.meta.json").read_bytes() == GOLDEN["log.csv.meta.json"]


def test_write_log_of_an_empty_log_golden_bytes(tmp_path):
    path = tmp_path / "empty.csv"
    write_log(_empty_log(), path)
    assert path.read_bytes() == GOLDEN["empty.csv"]
    assert (tmp_path / "empty.csv.meta.json").read_bytes() == GOLDEN["empty.csv.meta.json"]


def test_write_rolling_csv_golden_bytes(tmp_path):
    path = tmp_path / "rolling.csv"
    write_rolling_csv(_rolling(), path)
    assert path.read_bytes() == GOLDEN["rolling.csv"]


def test_write_shift_csv_golden_bytes(tmp_path):
    path = tmp_path / "shift.csv"
    write_shift_csv(_shift(), path)
    assert path.read_bytes() == GOLDEN["shift.csv"]
