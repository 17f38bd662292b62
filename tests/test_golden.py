"""Golden outputs: sha256 of every file ``model``, ``simulate`` and ``analyze``
write.

The runs use criterion 10's reduced grid; ``simulate`` and ``analyze`` run at
two seeds.  ``model`` folds its rates, spectra and sweep from one pair
intensity on that grid (fine enough for the bundled rocking width, so
``spdc.sweep_grid`` leaves it unchanged), so its hashes pin the kernel and
the sweep fold.  A refactor that leaves the arithmetic and the random-number
consumption unchanged must reproduce these bytes exactly; a change that
alters them on purpose says so in CHANGES.md and regenerates the tables once.
"""

import hashlib

import pytest

from artifact.cli import EXIT_OK, main

REDUCED_GRID = [
    "--set", "grid.n_energy=400", "--set", "grid.n_x=60",
    "--set", "grid.n_y=12",
]
REDUCED = REDUCED_GRID + [
    "--set", "source.duration_s=30", "--set", "source.pair_rate_hz=3",
]

MODEL_GOLDEN = {
    "bragg_sweep.csv": "0703de097f05b7c3a177668d84ff63f54cf2e949104b9dbdd6fda0a7e62aaa43",
    "model_spectra.csv": "a828200d6e6ffb1160ef9c52a15c94cd63337b9da15bc2845bcba78e017d8fb7",
    "model_summary.txt": "0dfcf1844cf0f7de9125ae1a0031a29c01e367d5c9bab5a060144a1e889f1aed",
}

GOLDEN = {
    77: {
        "simulate": {
            "events.csv": "4b8c4c187dfdd5640918a60faf22babfa388666af863d7ebcc1e2a660ec25f5f",
            "pulse_summary.txt": "41d5254e1e9054ba35d60e8a15c1351a543671045b9b82b45750a315e1d135bd",
            "run_meta.txt": "bcc330139ab5c8857a58031fe7f987368a0d281872364b5743217d8b3a856183",
        },
        "analyze": {
            "alpha_report.txt": "ecb53f37df0b6cf73214845801d1ce8c5644fcb3141b4a5484e3509ad0c93d75",
            "counts_all.csv": "875b914edf33302f8673ec1f40b2de0eeb4ee2a62dbfc396235073866fb2616a",
            "counts_heralded.csv": "d215cfd77c0aebad94e0a14145f52557ed0babd08212fc97fe52488c32e3212a",
            "rates.txt": "191f7b72aaf5d356013a71fef8e782bde4be3819bd7ca90433190c0ac9f6d95a",
            "sigma_curves.csv": "7e385eef9e80698a09eb2c3d8133457deecb23d9e4e7f0203951d52fd8d07144",
            "spectrum_ref.csv": "b432da4ed0e0f835639c4aa73127da278d2b8d8c1d13837ab37aaa1471ad2f30",
            "spectrum_trans.csv": "191afce09dcc52240ef2c99a805c14eabf8082f1df9360cdd4908c92639c7ebc",
        },
    },
    78: {
        "simulate": {
            "events.csv": "8312070494f68c6d31da17b2fb37d6788d66c1eacb9ba42dae14d7a8cd6bce36",
            "pulse_summary.txt": "347aa0580586b0e316c65ad0bc0dd216fa76c4ac0ec799b58f2ef262bfc58725",
            "run_meta.txt": "45c60bb3940e1ef02a7fdd1e3e463e8dc87ca7209a94938dca7b347b2ad88023",
        },
        "analyze": {
            "alpha_report.txt": "94883dbd382ed42c7e17060accd4b60b496d73e22a1295fecb606aafc2b3e509",
            "counts_all.csv": "313e3ea024e425b11074041f43d9b40323a71c3b9e3e56b35828c5a7f2a4144b",
            "counts_heralded.csv": "7d512318ee306118958203d73c3da0403d3b58f2c971d34b70c4363dea4288c8",
            "rates.txt": "52d39e95715f8824dcfb755ab416ff6ad2e01d56edc77465e3c97fb3c5248a5a",
            "sigma_curves.csv": "f73dad30bb2462a7ef4a9cc0c24397b848df32c58bdfddcbfb19fd1395349326",
            "spectrum_ref.csv": "63a5070c4bf43244edf148ab4868346e31f2c626c946a483c0799cd8855b3033",
            "spectrum_trans.csv": "aaaadddee3567bc0d75df43c2d145244fd52133cbabc0e0b4637db0708dd7c94",
        },
    },
}


def _digests(directory):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_simulate_and_analyze_outputs_match_golden_hashes(tmp_path, seed):
    sim, ana = tmp_path / "sim", tmp_path / "ana"
    args = ["--seed", str(seed)] + REDUCED
    assert main(["simulate", "--outdir", str(sim)] + args) == EXIT_OK
    assert main(["analyze", "--outdir", str(ana),
                 "--events", str(sim / "events.csv")] + args) == EXIT_OK
    assert _digests(sim) == GOLDEN[seed]["simulate"]
    assert _digests(ana) == GOLDEN[seed]["analyze"]


def test_model_outputs_match_golden_hashes(tmp_path):
    assert main(["model", "--outdir", str(tmp_path)] + REDUCED_GRID) == EXIT_OK
    assert _digests(tmp_path) == MODEL_GOLDEN
