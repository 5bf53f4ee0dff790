"""Engine selection: one plain name from ``ENGINES``, validated once.

Pins the selection contract: the two engines are ``vectorized`` (the
default) and ``legacy`` (the oracle); :func:`check_engine` is the one
validation point, shared by the simulator front door, the timing
studies' ``engine_spec=`` and the CLI's ``--engine`` choices; and an
unknown name fails before any design point runs, naming the valid
choices.
"""

import pytest

from repro.analysis.correlation_study import run_correlation_study
from repro.analysis.perf_study import run_perf_study
from repro.cli import main
from repro.engine import get_experiment
from repro.gpusim import ENGINES, check_engine, scaled_config
from repro.gpusim.simulator import DependencyDrivenSimulator

CHOICES = "expected one of: vectorized, legacy"


def test_engines_are_the_two_exact_engines():
    assert ENGINES == ("vectorized", "legacy")


@pytest.mark.parametrize("name", ENGINES)
def test_check_engine_accepts_each_engine(name):
    assert check_engine(name) == name


@pytest.mark.parametrize(
    "name",
    [
        "relaxed",
        "warp-speed",
        "",
        # The retired ``name:key=value`` spec strings and near-miss
        # spellings are not engine names either.
        "relaxed:verify=0.5",
        "vectorized:verify=1.0",
        "legacy:tolerance=0.01",
        "Vectorized",
    ],
)
def test_check_engine_names_the_valid_choices(name):
    with pytest.raises(ValueError, match=CHOICES):
        check_engine(name)


def test_simulator_rejects_unknown_engine():
    with pytest.raises(ValueError, match=CHOICES):
        DependencyDrivenSimulator(scaled_config(), "relaxed")


@pytest.mark.parametrize("study", [run_perf_study, run_correlation_study])
def test_studies_reject_unknown_engine_before_running(study):
    with pytest.raises(ValueError, match=CHOICES):
        study(engine_spec="relaxed")


@pytest.mark.parametrize("study", [run_perf_study, run_correlation_study])
@pytest.mark.parametrize("kwargs", [{"engine": "legacy"}, {"verify": 0.5}])
def test_studies_take_no_legacy_engine_kwargs(study, kwargs):
    with pytest.raises(TypeError):
        study(**kwargs)


@pytest.mark.parametrize("experiment", ["perf.fig11", "correlation.fig10"])
def test_engine_is_the_only_engine_axis(experiment):
    defaults = get_experiment(experiment).resolve_params(None)
    assert defaults["engine"] == "vectorized"
    assert "verify" not in defaults


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "perf.fig11", "--engine", "relaxed"],
        ["run", "perf.fig11", "--verify", "0.5"],
        ["run", "perf.fig11", "--engine-spec", "vectorized"],
    ],
)
def test_cli_rejects_retired_engine_flags(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "repro run: error:" in err
    # The subcommand's usage line names the valid engine choices.
    assert "--engine {%s}" % ",".join(ENGINES) in err
