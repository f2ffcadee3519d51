"""The persistent trained-model store: round trips, warm campaigns."""

import numpy as np
import pytest

from repro.api import Campaign, CampaignConfig, Session
from repro.core.population import WorkloadPopulation
from repro.sim.analytic import AnalyticModelBuilder
from repro.sim.badco.model import BadcoModelBuilder, BadcoNode
from repro.sim.modelstore import (
    MODELSTORE_VERSION,
    ModelStore,
    config_signature,
)

TRACE = 2000


def test_signature_is_stable_and_sensitive():
    assert config_signature("a", 1) == config_signature("a", 1)
    assert config_signature("a", 1) != config_signature("a", 2)
    assert config_signature("a", 1) != config_signature("b", 1)


def test_badco_model_round_trips_bit_identically(tmp_path):
    store = ModelStore(tmp_path)
    cold = BadcoModelBuilder(TRACE, 0, store=store)
    trained = cold.build("gcc")
    assert cold.training_runs == 2
    warm = BadcoModelBuilder(TRACE, 0, store=store)
    loaded = warm.build("gcc")
    assert warm.training_runs == 0
    assert warm.training_uops == 0
    assert loaded.benchmark == trained.benchmark
    assert loaded.trace_length == trained.trace_length
    # Tuple equality covers every float and every extra request.
    assert loaded.nodes == trained.nodes
    assert all(type(node) is BadcoNode for node in loaded.nodes)


def test_store_miss_on_different_configuration(tmp_path):
    store = ModelStore(tmp_path)
    BadcoModelBuilder(TRACE, 0, store=store).build("gcc")
    other_seed = BadcoModelBuilder(TRACE, 1, store=store)
    other_seed.build("gcc")
    assert other_seed.training_runs == 2        # different trace, retrained
    other_length = BadcoModelBuilder(TRACE + 500, 0, store=store)
    other_length.build("gcc")
    assert other_length.training_runs == 2


def test_corrupt_store_entry_falls_back_to_training(tmp_path):
    store = ModelStore(tmp_path)
    first = BadcoModelBuilder(TRACE, 0, store=store)
    first.build("gcc")
    for path in tmp_path.iterdir():
        path.write_bytes(b"not an npz")
    warm = BadcoModelBuilder(TRACE, 0, store=store)
    model = warm.build("gcc")
    assert warm.training_runs == 2
    assert model.nodes == first.build("gcc").nodes


def test_store_files_carry_the_format_version(tmp_path):
    store = ModelStore(tmp_path)
    BadcoModelBuilder(TRACE, 0, store=store).build("gcc")
    # Dotfiles (the writer lock) are bookkeeping, not artefacts.
    names = [p.name for p in tmp_path.iterdir()
             if not p.name.startswith(".")]
    assert names and all(f"-v{MODELSTORE_VERSION}." in n for n in names)


def test_calibration_and_probe_round_trip(tmp_path):
    from repro.mem.uncore import uncore_config_for_cores

    store = ModelStore(tmp_path)
    cold = AnalyticModelBuilder(TRACE, 0, store=store)
    config = uncore_config_for_cores(2, "DIP")
    calibration = cold.calibrate("gcc", config)
    assert cold.calibration_runs > 0

    warm = AnalyticModelBuilder(TRACE, 0, store=store)
    assert warm.calibrate("gcc", config) == calibration
    assert warm.calibration_runs == 0
    assert warm.badco.training_runs == 0


def test_warm_campaign_trains_nothing_and_is_bit_identical(tmp_path):
    """The acceptance criterion: zero training runs, identical results."""
    names = ["gcc", "libquantum", "mcf"]
    population = WorkloadPopulation(names, 2)
    base = CampaignConfig(backend="analytic", cores=2, trace_length=TRACE,
                          cache_dir=tmp_path / "cache-cold",
                          model_store_dir=tmp_path / "models")
    cold = Campaign(base)
    cold.run_grid(list(population), ["LRU", "DIP"])
    cold.reference_ipcs(names)
    assert cold.builder.badco.training_runs > 0

    # A fresh campaign with a fresh results cache but the same store:
    # everything re-simulates analytically, nothing re-trains.
    warm = Campaign(base.replace(cache_dir=tmp_path / "cache-warm"))
    warm.run_grid(list(population), ["LRU", "DIP"])
    warm.reference_ipcs(names)
    assert warm.builder.badco.training_runs == 0
    assert warm.builder.badco.training_uops == 0
    assert warm.builder.calibration_runs == 0
    assert warm.results.to_json() == cold.results.to_json()


def test_campaign_attaches_store_only_without_one(tmp_path):
    store = ModelStore(tmp_path / "explicit")
    builder = AnalyticModelBuilder(TRACE, 0, store=store)
    config = CampaignConfig(backend="analytic", cores=2, trace_length=TRACE,
                            model_store_dir=tmp_path / "from-config")
    campaign = Campaign(config, builder=builder)
    assert campaign.builder.store is store      # explicit store wins


def test_session_threads_model_store(tmp_path):
    session = Session("small", cache_dir=tmp_path / "cache",
                      model_store_dir=tmp_path / "models",
                      benchmarks=["gcc", "mcf"], backend="analytic")
    assert session.config().model_store_dir == tmp_path / "models"
    builder = session.builder("analytic")
    assert builder.store is not None
    assert builder.store.root == tmp_path / "models"
    assert builder.badco.store is not None
    # Empty string disables persistence.
    off = Session("small", cache_dir=tmp_path / "cache",
                  model_store_dir="", benchmarks=["gcc", "mcf"])
    assert off.model_store_dir is None
    assert off.config().model_store_dir is None


def test_default_model_store_lives_under_the_cache(tmp_path, monkeypatch):
    from repro.api.scales import default_model_store_dir

    monkeypatch.delenv("REPRO_MODEL_STORE_DIR", raising=False)
    assert default_model_store_dir(tmp_path) == tmp_path / "models"
    assert default_model_store_dir(None) is None
    monkeypatch.setenv("REPRO_MODEL_STORE_DIR", "")
    assert default_model_store_dir(tmp_path) is None
    monkeypatch.setenv("REPRO_MODEL_STORE_DIR", str(tmp_path / "elsewhere"))
    assert default_model_store_dir(tmp_path) == tmp_path / "elsewhere"


def test_model_store_dir_stays_out_of_the_cache_key(tmp_path):
    plain = CampaignConfig(backend="analytic", cores=2)
    stored = plain.replace(model_store_dir=tmp_path)
    assert plain.cache_key == stored.cache_key


def test_load_record_rejects_non_mapping(tmp_path, caplog):
    store = ModelStore(tmp_path)
    fields = {"ipc": (float,)}
    store.save_record("calib", "gcc-LRU", "sig", {"ipc": 1.0})
    assert store.load_record("calib", "gcc-LRU", "sig", fields) == \
        {"ipc": 1.0}
    path = store.record_path("calib", "gcc-LRU", "sig")
    path.write_text("[1, 2, 3]")
    with caplog.at_level("WARNING", logger="repro.sim.modelstore"):
        assert store.load_record("calib", "gcc-LRU", "sig", fields) is None
    (record,) = caplog.records
    assert str(path) in record.getMessage()
    caplog.clear()
    # A plain miss is silent.
    with caplog.at_level("WARNING", logger="repro.sim.modelstore"):
        assert store.load_record("calib", "missing", "sig", fields) is None
    assert caplog.records == []


def test_badzip_store_entry_falls_back_to_training(tmp_path):
    """Zip-magic-but-corrupt files must retrain, not crash (BadZipFile)."""
    store = ModelStore(tmp_path)
    first = BadcoModelBuilder(TRACE, 0, store=store)
    first.build("gcc")
    for path in tmp_path.iterdir():
        path.write_bytes(b"PK\x03\x04garbage")
    assert store.load_badco_model("gcc",
                                  first._store_signature()) is None
    warm = BadcoModelBuilder(TRACE, 0, store=store)
    assert warm.build("gcc").nodes == first.build("gcc").nodes
    assert warm.training_runs == 2


def _shorten(path, member):
    """Rewrite a stored npz with one member an element short."""
    import numpy as np

    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    arrays[member] = arrays[member][:-1]
    np.savez_compressed(path, **arrays)


def test_ragged_store_entry_falls_back_to_training(tmp_path):
    """A well-formed npz whose node columns disagree in length is a
    corrupt entry: it must retrain, not load a truncated model."""
    store = ModelStore(tmp_path)
    first = BadcoModelBuilder(TRACE, 0, store=store)
    first.build("gcc")
    _shorten(store.badco_model_path("gcc", first._store_signature()),
             "intrinsic")
    assert store.load_badco_model("gcc", first._store_signature()) is None
    warm = BadcoModelBuilder(TRACE, 0, store=store)
    assert warm.build("gcc").nodes == first.build("gcc").nodes
    assert warm.training_runs == 2


@pytest.mark.parametrize("kind, member", [
    ("badco", "extra_addresses"),
    ("interval", "intrinsic"),
    ("interval", "extra_addresses"),
    ("interval", "read_addresses"),
])
def test_unusable_entry_retrains_with_one_warning(tmp_path, caplog, kind,
                                                  member):
    """A ragged column, or a flat array its offset table overruns, is a
    corrupt entry: the builder retrains the same model and the store
    logs one warning naming the file."""
    from repro.sim.interval.profile import IntervalProfileBuilder

    store = ModelStore(tmp_path)
    builder, path_of = {
        "badco": (BadcoModelBuilder, store.badco_model_path),
        "interval": (IntervalProfileBuilder, store.interval_profile_path),
    }[kind]
    first = builder(TRACE, 0, store=store)
    trained = first.build("gcc")
    path = path_of("gcc", first._store_signature())
    _shorten(path, member)
    warm = builder(TRACE, 0, store=store)
    with caplog.at_level("WARNING", logger="repro.sim.modelstore"):
        assert vars(warm.build("gcc")) == vars(trained)
    assert warm.training_runs == first.training_runs
    (record,) = caplog.records
    assert str(path) in record.getMessage()


def test_corrupt_calibration_values_fall_back_to_running(tmp_path, caplog):
    import json

    from repro.mem.uncore import uncore_config_for_cores

    store = ModelStore(tmp_path)
    cold = AnalyticModelBuilder(TRACE, 0, store=store)
    config = uncore_config_for_cores(2, "LRU")
    calibration = cold.calibrate("gcc", config)
    # Corrupt the stored values (right keys, wrong types).
    signature = cold.badco._calibration_signature(config, 0.25)
    path = store.record_path("calib", "gcc-LRU", signature)
    path.write_text(json.dumps({"ipc": "oops", "cycles": None,
                                "miss_ratio": 0.1,
                                "extra_per_miss": True}))
    warm = AnalyticModelBuilder(TRACE, 0, store=store)
    with caplog.at_level("WARNING", logger="repro.sim.modelstore"):
        assert warm.calibrate("gcc", config) == calibration
    assert warm.calibration_runs == 1       # re-ran, did not serve garbage
    (record,) = caplog.records
    assert str(path) in record.getMessage()


def _vector_record(store, builder, benchmark="gcc"):
    return store.record_path("vector", benchmark,
                             builder.badco._store_signature())


def test_vector_record_round_trips_bit_exactly(tmp_path, monkeypatch):
    store = ModelStore(tmp_path)
    cold = AnalyticModelBuilder(TRACE, 0, store=store)
    vector = cold.vectors("gcc")
    assert _vector_record(store, cold).exists()

    # A warm builder reads the five scalars, never the node model.
    loads = []
    original = ModelStore.load_badco_model

    def spy(self, *args, **kwargs):
        loads.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ModelStore, "load_badco_model", spy)
    warm = AnalyticModelBuilder(TRACE, 0, store=store)
    loaded = warm.vectors("gcc")
    assert loaded == vector
    assert [type(getattr(loaded, name)) for name in vars(loaded)] == \
        [type(getattr(vector, name)) for name in vars(vector)]
    assert loads == []
    assert warm.badco.training_runs == 0


@pytest.mark.parametrize("damage", ["missing", "corrupt", "wrong-types",
                                    "wrong-fields"])
def test_bad_vector_record_is_rederived_identically(tmp_path, caplog,
                                                    damage):
    import json

    store = ModelStore(tmp_path)
    cold = AnalyticModelBuilder(TRACE, 0, store=store)
    vector = cold.vectors("gcc")
    path = _vector_record(store, cold)
    payload = json.loads(path.read_text())
    if damage == "missing":
        path.unlink()
    elif damage == "corrupt":
        path.write_text("{not json")
    elif damage == "wrong-types":
        payload.update(uops=float(payload["uops"]), intrinsic="oops")
        path.write_text(json.dumps(payload))
    else:
        payload["extra"] = 1
        path.write_text(json.dumps(payload))
    warm = AnalyticModelBuilder(TRACE, 0, store=store)
    with caplog.at_level("WARNING", logger="repro.sim.modelstore"):
        assert warm.vectors("gcc") == vector
    # A present but unusable record logs one warning naming it; a
    # missing one is a silent miss.
    messages = [record.getMessage() for record in caplog.records]
    if damage == "missing":
        assert messages == []
    else:
        (message,) = messages
        assert str(path) in message
    # Re-derived from the stored node model (no retraining) and saved
    # back, so the next builder reads a good record again.
    assert warm.badco.training_runs == 0
    assert json.loads(path.read_text()) == json.loads(
        json.dumps(vars(vector)))


def test_interval_profile_round_trips_bit_identically(tmp_path):
    from repro.sim.interval.profile import IntervalProfileBuilder

    store = ModelStore(tmp_path)
    cold = IntervalProfileBuilder(TRACE, 0, store=store)
    trained = cold.build("mcf")
    assert cold.training_runs == 1
    assert cold.training_uops == TRACE
    warm = IntervalProfileBuilder(TRACE, 0, store=store)
    loaded = warm.build("mcf")
    assert warm.training_runs == 0
    assert warm.training_uops == 0
    # Dataclass equality covers every interval's intrinsic float, read
    # group and extras tuple.
    assert loaded.benchmark == trained.benchmark
    assert loaded.trace_length == trained.trace_length
    assert loaded.intervals == trained.intervals


def test_interval_profile_store_misses_on_other_config(tmp_path):
    from repro.sim.interval.profile import IntervalProfileBuilder

    store = ModelStore(tmp_path)
    IntervalProfileBuilder(TRACE, 0, store=store).build("mcf")
    other = IntervalProfileBuilder(TRACE, 7, store=store)
    other.build("mcf")
    assert other.training_runs == 1             # different seed, retrained
    corrupt = ModelStore(tmp_path)
    path = corrupt.interval_profile_path(
        "mcf", IntervalProfileBuilder(TRACE, 0)._store_signature())
    path.write_bytes(b"junk")
    rebuilt = IntervalProfileBuilder(TRACE, 0, store=store)
    rebuilt.build("mcf")
    assert rebuilt.training_runs == 1


@pytest.mark.parametrize("family", ["badco", "interval"])
def test_a_stored_model_of_another_length_is_retrained(tmp_path, family):
    """Both trained families share one ``build``, and its guard: a
    stored model whose trace length is not the builder's (a signature
    collision) is retrained, not replayed."""
    from repro.sim.interval.profile import IntervalProfileBuilder

    builder_type, path, runs = {
        "badco": (BadcoModelBuilder, "badco_model_path", 2),
        "interval": (IntervalProfileBuilder, "interval_profile_path", 1),
    }[family]
    store = ModelStore(tmp_path)
    long = builder_type(TRACE, 0, store=store)
    long.build("mcf")
    short = builder_type(TRACE // 2, 0, store=store)
    locate = getattr(store, path)
    locate("mcf", long._store_signature()).replace(
        locate("mcf", short._store_signature()))
    assert short.build("mcf").trace_length == TRACE // 2
    assert short.training_runs == runs


def test_interval_campaign_warms_from_the_store(tmp_path):
    from repro.core.workload import Workload

    config = CampaignConfig(backend="interval", cores=2, trace_length=TRACE,
                            seed=0, model_store_dir=tmp_path / "models")
    workloads = [Workload(["gcc", "mcf"]), Workload(["gcc", "gcc"])]
    cold = Campaign(config)
    cold.run_grid(workloads, ["LRU"])
    assert cold.builder.training_runs == 2
    warm = Campaign(config)                     # fresh builder, same store
    warm.run_grid(workloads, ["LRU"])
    assert warm.builder.training_runs == 0
    assert np.array_equal(
        warm.results.columnar_panel(["LRU"], workloads)[1]["LRU"].values,
        cold.results.columnar_panel(["LRU"], workloads)[1]["LRU"].values)
