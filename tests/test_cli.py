import json
from pathlib import Path

import pytest

import switchsde.cli
from switchsde.certify import certify_recurrence, search_gain
from switchsde.cli import main
from switchsde.config import load_model_config
from test_certify import ou_lin, truncating, undeclared

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
OU = str(CONFIG_DIR / "switched_ou.json")
SCALAR = str(CONFIG_DIR / "controlled_scalar.json")
LINEAR = str(CONFIG_DIR / "linear_2d.json")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def scalar_config(tmp_path, gain):
    doc = {
        "name": "controlled_scalar",
        "params": {
            "A": 1.0,
            "B": 1.0,
            "C": 0.0,
            "sigma": 0.0,
            "L": gain,
            "c": 1.0,
            "controllable": [1],
            "delay": 1.0,
        },
        "truncation_hint": 30,
    }
    path = tmp_path / f"scalar_{gain}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_in_process_calls_leak_no_values(tmp_path, capsys):
    # main builds its parser once per process; every call must still parse
    # as if the parser were new
    def certify(name, *extra):
        out = tmp_path / name
        code = main(["certify", "--model", OU, "--out", str(out), *extra])
        return code, (out / "certificate.json").read_bytes()

    switchsde.cli._parser.cache_clear()
    fresh = certify("fresh")
    assert fresh[0] == 0
    strict = certify("strict", "--margin", "5")
    assert strict[1] != fresh[1]
    assert certify("plain") == fresh  # --margin 5 did not stick
    assert main(["certify", "--out", str(tmp_path / "bad")]) == 2  # no --model
    assert "required" in capsys.readouterr().err
    assert certify("after") == fresh


def test_simulate_writes_deterministic_csv(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["simulate", "--model", OU, "--T", "2.0", "--seed", "5", "--x0", "1.5"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    for fname in ("trajectory.csv", "jumps.csv", "summary.json"):
        b1 = Path(out1, fname).read_bytes()
        b2 = Path(out2, fname).read_bytes()
        assert b1 == b2
    header = Path(out1, "trajectory.csv").read_text().splitlines()
    assert header[0].startswith("# seed=5 config_hash=")
    assert header[1] == "t,x1,mode"
    summary = read_json(Path(out1, "summary.json"))
    assert summary["meta"]["seed"] == 5
    assert summary["n_recorded"] > 1
    assert not summary["blow_up"]


def test_x0_takes_one_entry_per_coordinate(tmp_path, capsys):
    out = tmp_path / "v"
    sim = ["simulate", "--model", LINEAR, "--T", "0.5"]
    assert main(sim + ["--x0", "1,2", "--out", str(out)]) == 0
    assert Path(out, "trajectory.csv").read_text().splitlines()[2] == "0.0,1.0,2.0,1"
    assert main(sim + ["--x0", "1,2,3", "--out", str(tmp_path / "w")]) == 2
    assert "state has 3 entries, expected 2" in capsys.readouterr().err
    hitting = ["verify", "hitting", "--model", OU, "--paths", "4", "--x0", "1,2"]
    assert main(hitting + ["--out", str(tmp_path / "h")]) == 2
    assert "state has 2 entries, expected 1" in capsys.readouterr().err


def test_certify_exit_codes(tmp_path):
    out = str(tmp_path / "cert")
    assert main(["certify", "--model", OU, "--out", out]) == 0
    doc = read_json(Path(out, "certificate.json"))
    assert doc["verdict"] == "CERTIFIED"
    assert doc["partial_sum"] == pytest.approx(-1.0, abs=1e-9)
    assert doc["meta"]["config_hash"]
    assert doc["assumptions"]["rate_convergence"]

    weak = scalar_config(tmp_path, 1.0)
    assert main(["certify", "--model", weak, "--out", str(tmp_path / "w")]) == 1
    weak_doc = read_json(tmp_path / "w" / "certificate.json")
    assert weak_doc["verdict"] == "INCONCLUSIVE"


@pytest.mark.parametrize("command", [["certify", "--model", OU], ["stabilize", "--model", SCALAR]])
def test_tail_mass_is_no_option(tmp_path, capsys, command):
    # every shipped config declares both repeat points or a finite mode
    # count, so a tail mass could change none of their certificates
    out = tmp_path / "out"
    assert main([*command, "--tail-mass", "0.01", "--out", str(out)]) == 2
    assert "unrecognized arguments: --tail-mass 0.01" in capsys.readouterr().err
    assert not out.exists()


CERTIFY_REASONS = {
    "fluid_queue": ("INCONCLUSIVE", "partial sum >= 0"),  # every c_i is 0
    "predator_prey": ("INCONCLUSIVE", "sublinear_residuals"),  # a -c x^2 drift term
    "switched_ou": ("CERTIFIED", "certified"),
}


@pytest.mark.parametrize("name", sorted(CERTIFY_REASONS))
def test_certify_reason_at_shipped_hints(tmp_path, name):
    verdict, reason = CERTIFY_REASONS[name]
    out = str(tmp_path / name)
    assert main(["certify", "--model", str(CONFIG_DIR / f"{name}.json"), "--out", out]) == (
        0 if verdict == "CERTIFIED" else 1
    )
    doc = read_json(Path(out, "certificate.json"))
    assert (doc["verdict"], doc["reason"]) == (verdict, reason)


def test_stationary_from_model_and_triplets(tmp_path):
    out = str(tmp_path / "st")
    assert main(
        ["stationary", "--model", OU, "--N", "20", "--levels", "10,20", "--out", out]
    ) == 0
    doc = read_json(Path(out, "stationary.json"))
    assert doc["N"] == 20
    assert doc["nu"][0] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert len(doc["sweep"]) == 2

    gen = tmp_path / "gen.json"
    gen.write_text(
        json.dumps(
            {
                "name": "ring",
                "triplets": [
                    {"i": 1, "j": 2, "rate": 1.0},
                    {"i": 2, "j": 1, "rate": 3.0},
                ],
            }
        )
    )
    out2 = str(tmp_path / "st2")
    assert main(["stationary", "--generator", str(gen), "--N", "2", "--out", out2]) == 0
    doc2 = read_json(Path(out2, "stationary.json"))
    assert doc2["nu"] == pytest.approx([0.75, 0.25])

    assert main(["stationary", "--out", str(tmp_path / "st3")]) == 2


def test_stationary_refuses_a_repeated_level(tmp_path, capsys):
    # --levels 10,10 once wrote two equal sweep entries, the second with an
    # l1_change of 0.0
    out = tmp_path / "rep"
    assert main(["stationary", "--model", OU, "--levels", "10,10", "--out", str(out)]) == 2
    assert "levels repeats truncation level(s) [10]" in capsys.readouterr().err
    assert not (out / "stationary.json").exists()


def test_triplet_generators_count_their_modes(tmp_path):
    # a triplet generator's modes end at the largest one named: the default
    # N = 30 is capped there, and its certificate's tail is exactly empty
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"triplets": [{"i": 1, "j": 2, "rate": 1.0},
                                            {"i": 2, "j": 1, "rate": 3.0}]}))
    out = tmp_path / "st"
    assert main(["stationary", "--generator", str(gen), "--out", str(out)]) == 0
    doc = read_json(out / "stationary.json")
    assert doc["N"] == 2 and doc["nu"] == pytest.approx([0.75, 0.25])

    config = read_json(LINEAR)
    config["params"]["qhat"] = [[1, 2, 1.0], [2, 1, 3.0], [2, 3, 1.0], [3, 1, 2.0]]
    path = tmp_path / "linear_triplets.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "cert"
    assert main(["certify", "--model", str(path), "--out", str(out)]) == 0
    doc = read_json(out / "certificate.json")
    assert (doc["verdict"], doc["tail_mass_source"], doc["truncation"]) == (
        "CERTIFIED", "finite_modes", 3)
    lin = load_model_config(str(path)).lin
    assert {certify_recurrence(lin, n).nu.truncation for n in (2, 30, 100_000)} == {3}


def test_certify_without_a_tail_bound_is_inconclusive(tmp_path):
    # without a tail mass predator_prey's finite chain is weighed on all its
    # 50 modes whatever N, so N = 5 leaves no tail; the verdict then rests
    # on the model's flags: a verdict with its reason, not a usage error
    out = tmp_path / "pp"
    path = str(CONFIG_DIR / "predator_prey.json")
    assert main(["certify", "--model", path, "--out", str(out)]) == 1
    doc = read_json(out / "certificate.json")
    assert (doc["verdict"], doc["reason"], doc["tail_mass_source"]) == (
        "INCONCLUSIVE", "sublinear_residuals", "finite_modes")
    at_five = certify_recurrence(load_model_config(path).lin, 5).to_dict()
    assert (at_five["partial_sum"], at_five["truncation"]) == (doc["partial_sum"], 50)
    # an unproved tail is written with JSON nulls for its infinite and NaN terms
    cert = certify_recurrence(undeclared(ou_lin()), 5)
    assert (cert.reason, cert.nu.source) == ("tail unproved", "unproved")
    switchsde.cli._write_json(str(tmp_path), "unproved.json", cert.to_dict())
    doc = read_json(tmp_path / "unproved.json")
    assert doc["tail_bound"] is None and doc["total"] is None


CERTIFICATE_KEYS = {
    "claim", "form", "per_mode_c", "nu_head", "truncation", "stationary_residual",
    "partial_sum", "tail_bound", "rounding_bound", "tail_mass_source", "margin_frac", "total",
    "assumptions", "verdict", "reason",
}
ASSUMPTION_KEYS = {"coeff_bound_ok", "rate_convergence", "sublinear_residuals"}


@pytest.mark.parametrize("name, code", [("switched_ou", 0), ("predator_prey", 1)])
def test_certificate_json_holds_exactly_its_keys(tmp_path, name, code):
    # tail_mass (always tail_bound) and the flags qhat_conservative,
    # qhat_irreducible and stationary_residual_ok (true whenever a law is
    # solved) are no longer written
    out = tmp_path / name
    assert main(["certify", "--model", str(CONFIG_DIR / f"{name}.json"), "--out", str(out)]) == code
    doc = read_json(out / "certificate.json")
    assert set(doc) == CERTIFICATE_KEYS | {"meta", "model"}
    assert set(doc["assumptions"]) == ASSUMPTION_KEYS


@pytest.mark.parametrize("form", ["thm37", "thm41"])
def test_stabilization_certificate_holds_exactly_its_keys(tmp_path, form):
    out = tmp_path / form
    assert main(["stabilize", "--model", SCALAR, "--form", form, "--out", str(out)]) == 0
    doc = read_json(out / "stabilization.json")
    assert set(doc) == {"meta", "model", "form", "budget", "found", "gains", "certificate"}
    assert set(doc["certificate"]) == CERTIFICATE_KEYS
    assert set(doc["certificate"]["assumptions"]) == ASSUMPTION_KEYS


def test_stationary_takes_one_source(tmp_path, capsys):
    # --generator next to --model was once ignored: the model's law was written
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"triplets": [{"i": 1, "j": 2, "rate": 1.0},
                                            {"i": 2, "j": 1, "rate": 3.0}]}))
    out = tmp_path / "st"
    assert main(["stationary", "--model", OU, "--generator", str(gen), "--out", str(out)]) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


def test_stationary_rejects_a_nan_rate(tmp_path, capsys):
    # json.loads reads NaN; the rate once reached the solve, which failed
    # with "Factor is exactly singular"
    gen = tmp_path / "gen.json"
    gen.write_text('{"triplets": [{"i": 1, "j": 2, "rate": NaN}, {"i": 2, "j": 1, "rate": 3.0}]}')
    out = tmp_path / "st"
    assert main(["stationary", "--generator", str(gen), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {gen}: triplets[0] (1, 2, nan): ")
    assert "rate nan at (1,2) is not finite and nonnegative" in err
    assert not out.exists()


@pytest.mark.parametrize("doc, key", [
    ('{"triplets": 5}', "'triplets'"),
    ('[{"i": 1, "j": 2, "rate": 1.0}]', "top level"),
    ('{"name": "x"}', "'triplets'"),
    ('{"triplets": [5]}', "triplets[0]"),
    ('{"triplets": [{"i": 1, "j": 2, "rate": 1.0}, {"i": 2, "j": 1}]}', "['rate']"),
    ('{"triplets": [{"i": [1], "j": 2, "rate": 1.0}]}', "['i']"),
])
def test_malformed_generator_files_are_usage_errors(tmp_path, capsys, doc, key):
    # these once ended in a TypeError traceback (exit 1) or "error: 'triplets'"
    gen = tmp_path / "gen.json"
    gen.write_text(doc)
    out = tmp_path / "st"
    assert main(["stationary", "--generator", str(gen), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {gen}: ") and key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("raw", [b'{"triplets": [{"i"', '{"name": "\u00e9"}'.encode("latin-1")],
                         ids=["truncated", "latin-1"])
@pytest.mark.parametrize("command", [["stationary", "--generator"], ["certify", "--model"]],
                         ids=["generator", "model"])
def test_unreadable_documents_are_refused_with_their_path(tmp_path, capsys, command, raw):
    # a truncated or non-UTF-8 --generator file once printed only the
    # parser's or the codec's message; both files are read by one reader
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    out = tmp_path / "out"
    assert main([*command, str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: not valid JSON (")
    assert not out.exists()


@pytest.mark.parametrize("entry", [{"i": 1.5, "j": 2, "rate": 1.0},
                                   {"i": True, "j": 2, "rate": 1.0},
                                   {"i": 1, "j": 2, "rate": True}])
def test_fractional_and_boolean_triplets_are_usage_errors(tmp_path, capsys, entry):
    # mode 1.5 once read as mode 1 and true as mode 1 or rate 1.0, exit 0
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"triplets": [{"i": 2, "j": 1, "rate": 3.0}, entry]}))
    out = tmp_path / "st"
    assert main(["stationary", "--generator", str(gen), "--out", str(out)]) == 2
    # the refusal names the file, as the command's own checks do
    assert capsys.readouterr().err.startswith(f"error: {gen}: triplets[1] ")
    assert not out.exists()
    # numeric strings stay accepted
    gen.write_text(json.dumps({"triplets": [{"i": "2", "j": "1", "rate": "3"},
                                            {"i": 1, "j": 2, "rate": 1.0}]}))
    assert main(["stationary", "--generator", str(gen), "--out", str(out)]) == 0
    assert read_json(out / "stationary.json")["nu"] == pytest.approx([0.75, 0.25])


def with_hint(tmp_path, path, hint):
    """A copy of the model config at ``path`` whose truncation_hint is ``hint``."""
    doc = read_json(path)
    doc["truncation_hint"] = hint
    copy = tmp_path / f"hint{hint}_{Path(path).name}"
    copy.write_text(json.dumps(doc))
    return str(copy)


@pytest.mark.parametrize("n", [-5, 0, 1])
def test_a_level_below_two_is_a_usage_error(tmp_path, capsys, n):
    # the exact law and a finite chain weighed whole ignore N, so these
    # levels once wrote CERTIFIED certificates and exited 0; a certificate
    # reads its level from the config's truncation_hint
    pp = str(CONFIG_DIR / "predator_prey.json")
    runs = [["certify", OU], ["certify", LINEAR], ["certify", pp], ["stabilize", SCALAR],
            ["stabilize", SCALAR, "--form", "thm41"]]
    for k, (command, path, *extra) in enumerate(runs):
        out = tmp_path / str(k)
        bad = with_hint(tmp_path, path, n)
        assert main([command, "--model", bad, *extra, "--out", str(out)]) == 2, command
        assert f"error: {bad}: truncation_hint must be an integer >= 2, got {n}" in (
            capsys.readouterr().err)
        assert not out.exists()
    two = with_hint(tmp_path, OU, 2)
    assert main(["certify", "--model", two, "--out", str(tmp_path / "two")]) == 0


@pytest.mark.parametrize("command", [["certify", "--model", OU],
                                     ["stabilize", "--model", SCALAR]])
def test_certificates_take_no_truncation_level(tmp_path, capsys, command):
    # every loadable model's law is exact, so --N changed no certificate and
    # is gone from both commands; stationary keeps it, as N is its truncation
    out = tmp_path / "c"
    assert main([*command, "--N", "30", "--out", str(out)]) == 2
    assert "unrecognized arguments: --N 30" in capsys.readouterr().err
    assert not out.exists()
    out = tmp_path / "st"
    assert main(["stationary", "--model", OU, "--N", "12", "--out", str(out)]) == 0
    doc = read_json(out / "stationary.json")
    assert doc["N"] == 12 and len(doc["nu"]) == 12


def test_stabilize_search(tmp_path):
    open_loop = scalar_config(tmp_path, 0.0)
    out = str(tmp_path / "stab")
    assert main(["stabilize", "--model", open_loop, "--out", out]) == 0
    doc = read_json(Path(out, "stabilization.json"))
    assert doc["found"] is True
    assert doc["gains"]["1"] == [[4.0]]
    assert doc["certificate"]["verdict"] == "CERTIFIED"
    assert doc["certificate"]["reason"] == "certified"

    assert (
        main(["stabilize", "--model", open_loop, "--budget", "1.0", "--out", str(tmp_path / "s2")])
        == 1
    )
    assert read_json(tmp_path / "s2" / "stabilization.json")["found"] is False

    # a model without declared inputs is a usage error
    assert main(["stabilize", "--model", OU, "--out", str(tmp_path / "s3")]) == 2


def test_stabilize_solves_the_stationary_law_once(tmp_path, monkeypatch):
    import switchsde.certify
    import switchsde.chain
    import switchsde.cli

    sizes, exact = [], []
    solve, law = switchsde.chain.stationary, switchsde.certify.exact_law

    def counting(tg):
        sizes.append(tg.size)
        return solve(tg)

    def counting_law(qhat):
        exact.append(qhat.name)
        return law(qhat)

    for module in (switchsde.chain, switchsde.certify, switchsde.cli):
        monkeypatch.setattr(module, "stationary", counting)
    monkeypatch.setattr(switchsde.certify, "exact_law", counting_law)
    open_loop = scalar_config(tmp_path, 0.0)
    # the ladder declares its repeat point: no truncation, and one exact law
    # per certificate built, the search's and the found plan's
    assert main(["stabilize", "--model", open_loop, "--out", str(tmp_path / "e")]) == 0
    assert (len(exact), sizes) == (2, [])
    # an exhausted search builds one
    assert main(["stabilize", "--model", open_loop, "--budget", "1.0",
                 "--out", str(tmp_path / "c")]) == 1
    assert (len(exact), sizes) == (3, [])
    # so does a search over a law truncated at N, whose tail is unproved at
    # every grid point
    loaded = load_model_config(open_loop)
    lin, inputs, ctl = truncating(loaded.lin), loaded.spec.meta["input_matrix"], [1]
    assert search_gain(lin, inputs, ctl, 40) is None
    assert search_gain(lin, inputs, ctl, 30, budget=1.0) is None
    assert (len(exact), sizes) == (3, [40, 30])


def test_verify_hitting_rerun_is_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "v1"), str(tmp_path / "v2")
    args = [
        "verify",
        "hitting",
        "--model",
        OU,
        "--T",
        "30",
        "--paths",
        "20",
        "--x0",
        "2.0",
        "--i0",
        "3",
        "--H",
        "1.0",
        "--k0",
        "2",
        "--seed",
        "3",
    ]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    b1 = Path(out1, "verify_hitting.json").read_bytes()
    assert b1 == Path(out2, "verify_hitting.json").read_bytes()
    doc = read_json(Path(out1, "verify_hitting.json"))
    assert doc["estimate"]["usable"]
    assert doc["estimate"]["censored_fraction"] < 1.0


def test_verify_coupling_and_occupation(tmp_path):
    out = str(tmp_path / "vc")
    assert (
        main(
            [
                "verify",
                "coupling",
                "--model",
                OU,
                "--T",
                "4",
                "--paths",
                "50",
                "--radii",
                "5,200",
                "--out",
                out,
            ]
        )
        == 0
    )
    doc = read_json(Path(out, "verify_coupling.json"))
    assert [row["radius"] for row in doc["table"]] == [5.0, 200.0]

    out2 = str(tmp_path / "vo")
    assert (
        main(
            [
                "verify",
                "occupation",
                "--model",
                OU,
                "--T",
                "8",
                "--burn-in",
                "2",
                "--paths",
                "10",
                "--starts",
                "0.5,2.0",
                "--out",
                out2,
            ]
        )
        == 0
    )
    doc2 = read_json(Path(out2, "verify_occupation.json"))
    assert len(doc2["l1_distances"]) == 2


def test_dynkin_command(tmp_path):
    out = str(tmp_path / "dk")
    assert (
        main(
            [
                "dynkin",
                "--model",
                OU,
                "--t",
                "0.5",
                "--dt",
                "0.01",
                "--paths",
                "60",
                "--functional",
                "quadratic",
                "--out",
                out,
            ]
        )
        == 0
    )
    doc = read_json(Path(out, "dynkin.json"))
    assert abs(doc["residual"]["mean"]) < 0.2
    assert doc["functional"] == "quadratic"


def test_usage_errors(tmp_path):
    assert main(["certify", "--model", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["certify", "--model", str(bad)]) == 2
    assert main(["no_such_command"]) == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


@pytest.mark.parametrize("paths", ["0", "-3", "1"])
@pytest.mark.parametrize(
    "command",
    [["verify", "hitting"], ["verify", "descent"], ["verify", "coupling"],
     ["verify", "occupation"], ["dynkin"]],
)
def test_paths_below_two_are_usage_errors(tmp_path, capsys, command, paths):
    # an estimate and its standard error need two paths
    out = tmp_path / "out"
    assert main(command + ["--model", OU, "--paths", paths, "--out", str(out)]) == 2
    assert "--paths" in capsys.readouterr().err
    assert not out.exists()


def read_strict_json(path):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=reject)


def test_non_finite_values_are_written_as_null(tmp_path):
    # every path starts far outside the target and is censored: no mean, no SE
    out = str(tmp_path / "h")
    args = ["verify", "hitting", "--model", OU, "--x0", "100", "--T", "0.5", "--paths", "8"]
    assert main(args + ["--out", out]) == 1
    est = read_strict_json(Path(out, "verify_hitting.json"))["estimate"]
    assert est["mean"] is None and est["std_error"] is None
    assert est["censored_fraction"] == 1.0 and est["usable"] is False
    # finite outputs are written as before
    out2 = str(tmp_path / "d")
    assert main(["dynkin", "--model", OU, "--t", "0.2", "--paths", "8", "--out", out2]) == 0
    text = Path(out2, "dynkin.json").read_text(encoding="utf-8")
    assert text == json.dumps(read_strict_json(Path(out2, "dynkin.json")), indent=2,
                              sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv",
    [[*command, "--threads", "1"] for command in (
        ["verify", "hitting"], ["verify", "descent"], ["verify", "coupling"],
        ["verify", "occupation"], ["dynkin"])]
    + [["verify", "coupling", "--x0", "2"], ["verify", "occupation", "--x0", "2"],
       ["verify", "coupling", "--scheme", "bernoulli"]],
)
def test_flags_without_effect_are_unrecognized(tmp_path, capsys, argv):
    # the estimators draw every path from one stream, coupling and occupation
    # start from --radii and --starts, and the coupling runs by thinning
    out = tmp_path / "out"
    assert main(argv + ["--model", OU, "--paths", "2", "--out", str(out)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["certify", "stationary", "stabilize"])
def test_commands_that_draw_nothing_take_no_seed(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [command, "--model", SCALAR, "--out", str(out)]
    assert main(argv + ["--seed", "3"]) == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv) == 0
    (name,) = [p.name for p in out.iterdir()]
    assert set(read_json(out / name)["meta"]) == {"config_hash", "version"}


PREDATOR_PREY = str(CONFIG_DIR / "predator_prey.json")


@pytest.mark.parametrize(
    "command",
    [["simulate", "--T", "1"], ["verify", "hitting"], ["verify", "descent"],
     ["verify", "coupling"], ["verify", "occupation"], ["dynkin"]],
)
def test_start_mode_beyond_the_mode_space_is_a_usage_error(tmp_path, capsys, command):
    # predator_prey.json has n_max = 50
    out = tmp_path / "out"
    paths = [] if command[0] == "simulate" else ["--paths", "2"]
    argv = command + ["--model", PREDATOR_PREY, "--i0", "60", *paths, "--out", str(out)]
    assert main(argv) == 2
    assert "error: mode 60 is outside the mode space 1..50" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "occupation", "--model", OU, "--burn-in", "nan", "--paths", "2"],
        ["simulate", "--model", OU, "--T", "inf"],
        ["simulate", "--model", OU, "--T", "nan"],
        ["simulate", "--model", OU, "--T", "1", "--dt", "inf"],
        ["verify", "descent", "--model", OU, "--T", "inf", "--paths", "2"],
        ["dynkin", "--model", OU, "--t", "inf", "--paths", "2"],
        ["certify", "--model", OU, "--margin", "nan"],
        ["verify", "coupling", "--model", OU, "--floor-frac", "nan", "--paths", "2"],
        ["stabilize", "--model", SCALAR, "--margin", "nan"],
        ["verify", "hitting", "--model", OU, "--H", "nan", "--T", "1", "--paths", "2"],
        ["stabilize", "--model", SCALAR, "--budget", "nan"],
        ["stabilize", "--model", SCALAR, "--budget", "-5"],
        # at the parent this one never returned: the gain grid grew until killed
        ["stabilize", "--model", SCALAR, "--budget", "inf"],
    ],
)
def test_non_finite_and_nan_inputs_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_a_negative_burn_in_is_a_usage_error(tmp_path, capsys):
    # it once ran as burn_in 0 and exited 0
    out = tmp_path / "out"
    argv = ["verify", "occupation", "--model", OU, "--burn-in", "-5", "--paths", "2"]
    assert main(argv + ["--out", str(out)]) == 2
    assert "error: burn_in must be nonnegative, got -5.0" in capsys.readouterr().err
    assert not out.exists()


def test_infinite_delay_in_a_config_is_a_usage_error(tmp_path, capsys):
    doc = json.loads(Path(OU).read_text(encoding="utf-8"))
    doc["params"]["delay"] = float("inf")
    path = tmp_path / "inf_delay.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # written as Infinity
    assert "Infinity" in path.read_text(encoding="utf-8")
    assert main(["simulate", "--model", str(path), "--T", "1", "--out", str(tmp_path / "o")]) == 2
    assert "delay must be finite" in capsys.readouterr().err
