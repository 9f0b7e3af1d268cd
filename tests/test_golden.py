"""Golden-output tests: the default text reports, pinned byte for byte.

Inputs are the README two-state chain, a ``--moduli 4,3`` group walk with
a second, non-eigen observable (so its measure has several atoms, some at
degenerate eigenvalues) and a lazy golden rotation walk on the torus whose
observable has two frequencies.  ``[config]`` lines that echo file paths or
the selected backend are dropped; every other line must match exactly.  The
whole stdout of ``verify --quick`` and ``verify`` is pinned too, detail
lines and margins included.
"""

import json

from qclt.cli import main

README_DOC = {"states": ["0", "1"],
              "Q": [[0.75, 0.25], [0.25, 0.75]],
              "pi": [0.5, 0.5],
              "observables": {"f": [1.0, -1.0]}}
WALK_STEP = "0.0:0.5,1.0:0.125,3.0:0.125,0.1:0.125,0.2:0.125"
WALK_OBSERVABLE = [float((3 * i * i + i) % 7) - 3.0 for i in range(12)]
TORUS_COEFFS = {"1": 0.5, "3": [0.25, -0.125]}
MACHINE_KEYS = ("chain = ", "output = ", "coeffs = ", "backend = ")


def _report(capsys, argv) -> str:
    assert main(argv) == 0
    out = capsys.readouterr().out
    return "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith(MACHINE_KEYS))


def render(capsys, tmp_path) -> dict:
    """Report text of every pinned command, keyed by a short label."""
    readme = tmp_path / "readme.json"
    readme.write_text(json.dumps(README_DOC))
    walk = tmp_path / "walk.json"
    out = {"group": _report(capsys, ["group", "--moduli", "4,3", "--step", WALK_STEP,
                                     "--harmonic", "1,1", "--output", str(walk)])}
    doc = json.loads(walk.read_text())
    doc["observables"]["mix"] = WALK_OBSERVABLE
    walk.write_text(json.dumps(doc))
    for tag, path, obs, start, approx in [("readme", readme, "f", "0", ["--n", "1,2,4,16"]),
                                          ("walk", walk, "harmonic1_1", "0,0",
                                           ["--n", "1,2,8", "--start", "1,1"]),
                                          ("walk-mix", walk, "mix", "2,1",
                                           ["--n", "1,3,9", "--start", "3,2"])]:
        common = [str(path), "--observable", obs]
        out[f"{tag} analyze"] = _report(capsys, ["analyze", *common])
        out[f"{tag} approx"] = _report(capsys, ["approx", *common, *approx])
        out[f"{tag} simulate"] = _report(capsys, ["simulate", *common, "--start", start,
                                                  "--n", "32", "--paths", "200",
                                                  "--seed", "5"])
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps(TORUS_COEFFS))
    out["torus simulate"] = _report(capsys, ["torus", "--lazy", "0.5", "--coeffs", str(coeffs),
                                             "--paths", "200", "--n", "32", "--start", "0.3",
                                             "--seed", "5", "--threads", "2"])
    return out


# generated by ``render`` on the release whose eigensolver was cyclic Jacobi;
# ``residual_max`` prints 0 below the 1e-13 roundoff floor, so the same bytes
# come from every OpenBLAS core type
GOLDEN = {
    'group': (
        '[config]\n'
        'command = group\n'
        'moduli = 4,3\n'
        'step = 0.0:0.5,1.0:0.125,3.0:0.125,0.1:0.125,0.2:0.125\n'
        'harmonic = 1,1\n'
        '[walk]\n'
        'order = 12\n'
        'symmetric = true\n'
        'ergodic = true\n'
        'reversible = true\n'
        '[conditions]\n'
        'SR_sum = 1.6\n'
        'G1_sum = 0\n'
        'SN1_sum = 0.752005806793\n'
        'SR_spectral = 1.6\n'
    ),
    'readme analyze': (
        '[config]\n'
        'command = analyze\n'
        'observable = f\n'
        'tol = 1e-10\n'
        '[classification]\n'
        'reversible = true\n'
        'normal = true\n'
        'irreducible = true\n'
        'aperiodic = true\n'
        'tol = 1e-10\n'
        '[spectral]\n'
        'atom_count = 1\n'
        'atom_0 = 0.5 1\n'
        'total_mass = 1\n'
        'SR = 2\n'
        'SR2 = 0\n'
        'sigma_sq = 3\n'
    ),
    'readme approx': (
        '[config]\n'
        'command = approx\n'
        'observable = f\n'
        'n = 1,2,4,16\n'
        'start = all\n'
        'tol = 1e-10\n'
        '[diagnostics]\n'
        'n,x,cond_mean,residual_msq,residual_over_n,asdl_sup\n'
        '1,0,0.5,1,1,0.5\n'
        '1,1,-0.5,1,1,0.5\n'
        '2,0,0.75,1.5,0.75,0.53033008589\n'
        '2,1,-0.75,1.5,0.75,0.53033008589\n'
        '4,0,0.9375,1.875,0.46875,0.46875\n'
        '4,1,-0.9375,1.875,0.46875,0.46875\n'
        '16,0,0.999984741211,1.99996948242,0.124998092651,0.249996185303\n'
        '16,1,-0.999984741211,1.99996948242,0.124998092651,0.249996185303\n'
    ),
    'readme simulate': (
        '[config]\n'
        'command = simulate\n'
        'observable = f\n'
        'start = 0\n'
        'n = 32\n'
        'paths = 200\n'
        'seed = 5\n'
        'threads = 1\n'
        'tol = 1e-10\n'
        '[report]\n'
        'start_state = 0\n'
        'n = 32\n'
        'num_paths = 200\n'
        'seed = 5\n'
        'sample_mean = 0.0866205806954\n'
        'sample_var = 2.86620288945\n'
        'ks_distance = 0.075\n'
        'residual_max = 0\n'
        'sigma_sq_used = 3\n'
    ),
    'walk analyze': (
        '[config]\n'
        'command = analyze\n'
        'observable = harmonic1_1\n'
        'tol = 1e-10\n'
        '[classification]\n'
        'reversible = true\n'
        'normal = true\n'
        'irreducible = true\n'
        'aperiodic = true\n'
        'tol = 1e-10\n'
        '[spectral]\n'
        'atom_count = 1\n'
        'atom_0 = 0.375 1\n'
        'total_mass = 1\n'
        'SR = 1.6\n'
        'SR2 = 0\n'
        'sigma_sq = 2.2\n'
    ),
    'walk approx': (
        '[config]\n'
        'command = approx\n'
        'observable = harmonic1_1\n'
        'n = 1,2,8\n'
        'start = 1,1\n'
        'tol = 1e-10\n'
        '[diagnostics]\n'
        'n,x,cond_mean,residual_msq,residual_over_n,asdl_sup\n'
        '1,1,1,-0.459279326772,0.5175,0.5175,0.53033008589\n'
        '2,1,1,-0.631509074311,0.7509375,0.37546875,0.515625\n'
        '8,1,1,-0.734559549134,0.899577659369,0.112447207421,0.299882680178\n'
    ),
    'walk simulate': (
        '[config]\n'
        'command = simulate\n'
        'observable = harmonic1_1\n'
        'start = 0,0\n'
        'n = 32\n'
        'paths = 200\n'
        'seed = 5\n'
        'threads = 1\n'
        'tol = 1e-10\n'
        '[report]\n'
        'start_state = 0\n'
        'n = 32\n'
        'num_paths = 200\n'
        'seed = 5\n'
        'sample_mean = -0.0730792637576\n'
        'sample_var = 2.30616358859\n'
        'ks_distance = 0.0628938785593\n'
        'residual_max = 0\n'
        'sigma_sq_used = 2.2\n'
    ),
    'walk-mix analyze': (
        '[config]\n'
        'command = analyze\n'
        'observable = mix\n'
        'tol = 1e-10\n'
        '[classification]\n'
        'reversible = true\n'
        'normal = true\n'
        'irreducible = true\n'
        'aperiodic = true\n'
        'tol = 1e-10\n'
        '[spectral]\n'
        'atom_count = 5\n'
        'atom_0 = 0.125 0.0416666666667\n'
        'atom_1 = 0.375 1.52777777778\n'
        'atom_2 = 0.5 0.0625\n'
        'atom_3 = 0.625 0.430555555556\n'
        'atom_4 = 0.75 0.180555555556\n'
        'total_mass = 2.24305555556\n'
        'SR = 4.48743386243\n'
        'SR2 = 0.077053845405\n'
        'sigma_sq = 6.73181216931\n'
    ),
    'walk-mix approx': (
        '[config]\n'
        'command = approx\n'
        'observable = mix\n'
        'n = 1,3,9\n'
        'start = 3,2\n'
        'tol = 1e-10\n'
        '[diagnostics]\n'
        'n,x,cond_mean,residual_msq,residual_over_n,asdl_sup\n'
        '1,3,2,0.333333333333,2.42678004535,2.42678004535,1.16666666667\n'
        '3,3,2,0.40625,3.33065263605,1.11021754535,1.3249737623\n'
        '9,3,2,0.155883565545,3.43586489776,0.381762766418,1.01473325739\n'
    ),
    'walk-mix simulate': (
        '[config]\n'
        'command = simulate\n'
        'observable = mix\n'
        'start = 2,1\n'
        'n = 32\n'
        'paths = 200\n'
        'seed = 5\n'
        'threads = 1\n'
        'tol = 1e-10\n'
        '[report]\n'
        'start_state = 7\n'
        'n = 32\n'
        'num_paths = 200\n'
        'seed = 5\n'
        'sample_mean = -0.0987003215406\n'
        'sample_var = 6.06295147613\n'
        'ks_distance = 0.0561918511718\n'
        'residual_max = 0\n'
        'sigma_sq_used = 6.73181216931\n'
    ),
    'torus simulate': (
        '[config]\n'
        'command = torus\n'
        'alpha = 0.61803398875\n'
        'lazy = 0.5\n'
        'cutoff = 10000\n'
        'seed = 5\n'
        '[convergents]\n'
        '0/1 1/1 1/2 2/3 3/5 5/8 8/13 13/21 21/34 34/55 55/89 89/144 144/233 233/377 377/610 610/987 987/1597 1597/2584 2584/4181 4181/6765\n'
        '[series]\n'
        'n,dist,one_minus_nuhat,ratio,partial_sum\n'
        '1,0.38196601125,0.868684439039,0.301635783954,0\n'
        '3,0.14589803375,0.195780569511,0.465951772825,0.190875862408\n'
        '[report]\n'
        'start = 0.3\n'
        'n = 32\n'
        'num_paths = 200\n'
        'seed = 5\n'
        'sample_mean = 0.304956733333\n'
        'sample_var = 1.67588376275\n'
        'ks_distance = 0.128330071902\n'
        'sigma_sq_used = 2.09109075228\n'
    ),
}


def test_default_reports_are_pinned(capsys, tmp_path):
    assert render(capsys, tmp_path) == GOLDEN


# generated by ``qclt verify --quick`` and ``qclt verify`` on the release whose
# chaining families are drawn inside the kernels from qclt's own counter
# streams and whose chaining margins are rhs - lhs with no statistical slack,
# and whose roundoff-level diagnostics print to a 1e-13 floor; the same bytes
# come from every OpenBLAS core type (Haswell, Zen, Prescott, ...)
VERIFY_QUICK = (
    '[verify]\n'
    'PASS chaining deterministic cases -- lhs=1 rhs=1.41421 d=0 lhs==rhs 7/7\n'
    'PASS chaining over 100 random families -- violations=0 min margin=1.865e-01\n'
    'PASS domination bound holds with equality -- |worst slack|<1e-13 max_msq=3 bound=7.99334\n'
    'PASS domination detects a shrunken measure -- pair (m=1, n=2): moment 0.0102996826171875 exceeds bound 0.00514984130859375\n'
    'PASS dyadic block maxima bounded (D=6) -- max(lhs - rhs)=0.000e+00\n'
    'PASS log-envelope ratio finite and stable -- ratio=190.757 at t=0.7; doubled=190.757\n'
    'PASS horizon-gap moments agree (5 chains) -- worst rel gap<1e-13\n'
    'PASS sigma^2 triangulation -- worst scheme/spectral gap<1e-13\n'
    'PASS conditional centering of the difference kernel -- max |E[H|x]|<1e-13\n'
    'PASS pathwise telescoping residual -- max residual<1e-13\n'
    'PASS group walk Fourier/eigensolver identities -- eig gap<1e-13 SR gap<1e-13\n'
    'PASS torus trig identity and golden convergents -- max identity gap<1e-13 denominators=[1, 1, 2, 3, 5, 8, 13, 21]\n'
    'result = 12/12 passed\n'
)
VERIFY_FULL = (
    '[verify]\n'
    'PASS chaining deterministic cases -- lhs=1 rhs=1.41421 d=0 lhs==rhs 7/7\n'
    'PASS chaining over 1000 random families -- violations=0 min margin=9.885e-02\n'
    'PASS domination bound holds with equality -- |worst slack|<1e-13 max_msq=3 bound=7.99334\n'
    'PASS domination detects a shrunken measure -- pair (m=1, n=2): moment 0.0102996826171875 exceeds bound 0.00514984130859375\n'
    'PASS dyadic block maxima bounded (D=10) -- max(lhs - rhs)=0.000e+00\n'
    'PASS log-envelope ratio finite and stable -- ratio=190.757 at t=0.7; doubled=190.757\n'
    'PASS horizon-gap moments agree (25 chains) -- worst rel gap<1e-13\n'
    'PASS sigma^2 triangulation -- worst scheme/spectral gap<1e-13\n'
    'PASS conditional centering of the difference kernel -- max |E[H|x]|<1e-13\n'
    'PASS pathwise telescoping residual -- max residual<1e-13\n'
    'PASS group walk Fourier/eigensolver identities -- eig gap<1e-13 SR gap<1e-13\n'
    'PASS torus trig identity and golden convergents -- max identity gap<1e-13 denominators=[1, 1, 2, 3, 5, 8, 13, 21]\n'
    'result = 12/12 passed\n'
)


def test_verify_quick_output_is_pinned(capsys):
    assert main(["verify", "--quick"]) == 0
    assert capsys.readouterr().out == VERIFY_QUICK


def test_verify_output_is_pinned(capsys):
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == VERIFY_FULL
