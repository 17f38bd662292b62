"""Golden outputs: sha256 of every file ``model``, ``simulate`` and ``analyze``
write.

The runs use criterion 10's reduced grid; ``simulate`` and ``analyze`` run at
two seeds, and ``model`` runs on the bundled reference grid too.  ``model``
and ``simulate`` each solve one pair ridge (``spdc.pair_ridge``), as
``sweep`` does; ``analyze`` solves none.  Both grids are fine enough for the
bundled rocking width, so ``spdc.sweep_grid`` leaves them unchanged.
``model`` folds its sweep and rate fractions at the ridge zeros and spreads
their lines over the energy cells for its spectra; ``simulate`` draws its
pairs from those zeros.  So the hashes pin the ridge solve, the line
deposit, the ridge folds and the pair sampler.  A refactor that leaves
the arithmetic and the random-number consumption unchanged must reproduce
these bytes exactly; a change that alters them on purpose says so in
CHANGES.md and regenerates the tables once."""

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
    "bragg_sweep.csv": "88bd4c31a20f96b37f19836339fdc5918c17b85d905c0f7504a51451530586ef",
    "model_spectra.csv": "bb3a0c6c85db8a979ef6944f6395be7e018a9bfbf0e84d08a08334b2be58c64b",
    "model_summary.txt": "ef34ef3e2d816b77bf5d75f4954001610c70d1f84949d0990c12bc715a904315",
}

REFERENCE_MODEL_GOLDEN = {
    "bragg_sweep.csv": "4b6ad67ca0f95e4b2a2873ffe48f7c2cb0f93f4a4d60f3a6a2e555f3d24f1e88",
    "model_spectra.csv": "76c276439808f7d63bfffbd000c97fee77a69decf6808f3545c71cf93bad7474",
    "model_summary.txt": "716018fab23108adf602531ed6c4c69f4239c28e16a373c144a0cb70a9aacaf2",
}

GOLDEN = {
    77: {
        "simulate": {
            "events.csv": "2c5614aa64bbbefd41bfb28e80ff1d8873cb790918998a35f8eef7f90b8fbdfd",
            "pulse_summary.txt": "94b4abc687c82459661ef189e9ce64b78cd0b4f50cdc77f9cfe30714027f82af",
            "run_meta.txt": "0f03f39f0e7b50000af69f877adb41f863874f89edb253ac4b3e2ba1fc2e8226",
        },
        "analyze": {
            "alpha_report.txt": "02e1c77c22aebf7b55dc9bedb9f9e194c9d6d62906d92be42739d48c390f81bc",
            "counts_all.csv": "3283ecf5cc0face3c0952cb8c8384721cae7d37b786ba47ad53227beda8b1f09",
            "counts_heralded.csv": "3a02f8ef0a7178ca7d5fb48fedbd40ea145e1a620c30e2202470fbb9a85c0d94",
            "rates.txt": "0d3721ca36daa55110ea5579ba804242d7f5f9d495aca3293e2eb52ca5aec212",
            "sigma_curves.csv": "02e8a1a52fd50ebb92f84f5bbeb0d187233ed3425ca3558a39f96be3caa100ae",
            "spectrum_ref.csv": "9b794091b9937d319035b5a294325afa17884bca2f1e96dbd8bc8bf29a716576",
            "spectrum_trans.csv": "24671749edcbf6a5e37069f7fca531c1cd8a8747006baf33ff40433db591266b",
        },
    },
    78: {
        "simulate": {
            "events.csv": "a30e338a374da771c0c12ff42fc3e27cfb0a6863cc3d71450d4b76e7cc4ea474",
            "pulse_summary.txt": "7f21768a9086829993551359e5f411fa56b0c876bb16ca4c99d0c5f48e888725",
            "run_meta.txt": "8b79ed91b23d5e2026ca92c14ae0593b0da16347bd0454a7b6711dc1c4465687",
        },
        "analyze": {
            "alpha_report.txt": "815e272a46de7e709bd780b071f3ae0759a1886552c12b61e3abb3885ca54bf4",
            "counts_all.csv": "44dde358668374ec3f6cd7a4b6f1008a3c7d52808e89f50f4282bc2a0f22f620",
            "counts_heralded.csv": "9d92d6c4fdf151e68366cf87ebfe62ab3e5b2e2f2a0bbba717bdafd5d942c58b",
            "rates.txt": "57f8846726eec78f8dba5b8d01a6f20044221244b90df2ab25a273fa6e210f0d",
            "sigma_curves.csv": "5df79f7592ae41dc11b047f4d4f50f6e6bc7e5d2d0dcf9fb11bb99f27032224f",
            "spectrum_ref.csv": "e5467167d620df4bae8c20e62c33d35caf65955bd98c489f2d154c7d4a478ccb",
            "spectrum_trans.csv": "17b998dc28dd1d9f07a9eb2a13776fdc1c22a676d8db62ca894b5a24c38451f8",
        },
    },
}

# ``analyze`` of the seed-77 file under a non-default selection: spectra and
# sigma read the band and the sum window from the flagged table, so a
# version that falls back to the defaults changes the last three files.
SELECTION = [
    "--set", "daq.sum_halfwidth_kev=0.3", "--set", "daq.acceptance_lo_kev=7.5",
    "--set", "daq.acceptance_hi_kev=16.5",
]
SELECTION_GOLDEN = {
    "alpha_report.txt": "bc5967e5fd0852f955e9acdcd1698bea065448ceb84fcbfd633dc5c85d4e6532",
    "counts_all.csv": "3283ecf5cc0face3c0952cb8c8384721cae7d37b786ba47ad53227beda8b1f09",
    "counts_heralded.csv": "bea330118abbafd09f1de07667a8fdd7fee0bd740e08e84a61fa722045280593",
    "rates.txt": "dd9b12c1a3876b45cf0ebb738de4f706798902f295fc337214d170e6d0adffbc",
    "sigma_curves.csv": "33983618d7b7cb178916fd025f9fcf6f5fd6eb155a5cc67bc7b2a0d523600ddd",
    "spectrum_ref.csv": "84ae5216d3ed0730cd3b5c43f59ef8c5d247644b62930a6a228af51f2f812890",
    "spectrum_trans.csv": "2f5edc58e97f8d9f0d830263744116b47d58c532df58288d56fbd3441437d634",
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


def test_analyze_under_a_nondefault_selection_matches_golden_hashes(tmp_path):
    sim, ana = tmp_path / "sim", tmp_path / "ana"
    args = ["--seed", "77"] + REDUCED
    assert main(["simulate", "--outdir", str(sim)] + args) == EXIT_OK
    assert main(["analyze", "--outdir", str(ana),
                 "--events", str(sim / "events.csv")] + args + SELECTION) == EXIT_OK
    assert _digests(ana) == SELECTION_GOLDEN


def test_model_outputs_match_golden_hashes(tmp_path):
    assert main(["model", "--outdir", str(tmp_path)] + REDUCED_GRID) == EXIT_OK
    assert _digests(tmp_path) == MODEL_GOLDEN


def test_reference_grid_model_outputs_match_golden_hashes(tmp_path):
    assert main(["model", "--outdir", str(tmp_path)]) == EXIT_OK
    assert _digests(tmp_path) == REFERENCE_MODEL_GOLDEN
