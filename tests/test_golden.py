"""Golden outputs: sha256 of every file ``model``, ``simulate`` and ``analyze``
write.

The runs use criterion 10's reduced grid; ``simulate`` and ``analyze`` run at
two seeds, and ``model`` runs on the bundled reference grid too.  ``model``
builds one pair intensity on each grid (both fine enough for the bundled
rocking width, so ``spdc.sweep_grid`` leaves them unchanged): its spectra
fold the 2-D W, its sweep and rate fractions fold the ridge zeros W is
deposited from.  ``simulate`` solves only the ridge and draws its pairs from
those zeros.  So the hashes pin the ridge solve, the deposit of W, the
spectra fold, the ridge folds and the pair sampler.  A refactor that leaves
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
    "model_spectra.csv": "585afd1a2bfd614db435247be7e85646444845cad0f6d17a42e378da1263c93f",
    "model_summary.txt": "ef34ef3e2d816b77bf5d75f4954001610c70d1f84949d0990c12bc715a904315",
}

REFERENCE_MODEL_GOLDEN = {
    "bragg_sweep.csv": "4b6ad67ca0f95e4b2a2873ffe48f7c2cb0f93f4a4d60f3a6a2e555f3d24f1e88",
    "model_spectra.csv": "7693c94752c3a92b6caed42be8a6c9859d820ff1e999b9b60e6ed7758d736155",
    "model_summary.txt": "716018fab23108adf602531ed6c4c69f4239c28e16a373c144a0cb70a9aacaf2",
}

GOLDEN = {
    77: {
        "simulate": {
            "events.csv": "345c1cdcb45de964d0d9d31297b62354540aa7320acef99038837c8571a8afcb",
            "pulse_summary.txt": "afee2829aa7c83d892af33de6bd7b6f6f4c83247af1d18c4ef084c9d0934bead",
            "run_meta.txt": "b6175598d40b5f73ca35913eb19db5f91865c86a27822c4b839b8aca9e97b6e0",
        },
        "analyze": {
            "alpha_report.txt": "6b0ba789601e39cb72f9b843050e03226d9608cc43e80ac6739a41b1296d770e",
            "counts_all.csv": "436bbd165b16cc4b49d3ab667d5bf18dbe68e96cf4786bbf42a675ac4a208e12",
            "counts_heralded.csv": "ace6022527971f704a0f3c1d6388c1540e794b0d2b9d599f274b1d59000ec865",
            "rates.txt": "9a445e17ebfda4025cb8688b6c635f6d8c4a02a6d08e3ffc733e573318eb027f",
            "sigma_curves.csv": "b73b2f0c9f8718dd68c4f4654045dbe6a752bdf561cf9fafdcd34e8d74d85c8f",
            "spectrum_ref.csv": "a3b08ad31f632e9cc58eaa0c2cd737e74d7fd35b60155af2bd55f28eb327329a",
            "spectrum_trans.csv": "1e368a75e3309549cb264161c7cf894fe07c3cb382f08ca30103e83ad2aaa96c",
        },
    },
    78: {
        "simulate": {
            "events.csv": "30ebad185b7b1e247941e721753bcbebc36a4879a2bb024bfb7bb5ec45b8d77d",
            "pulse_summary.txt": "8c26a12e8ebc91db2713896a332d612d0ba923ffbf00d688c98cae3e93364f5e",
            "run_meta.txt": "5d9c524dc9a097cb15891cbb926e063b12007bdf75ffc9fa2cbbfdf199ae5d03",
        },
        "analyze": {
            "alpha_report.txt": "3e3551648cc91bf203486be84f12d98315f5d55f017f2cd703c89e45c82d9734",
            "counts_all.csv": "beec32e4e5a63dc98274035fe74916abd57cdf2ab6d5e7cd6aa2953121defc5c",
            "counts_heralded.csv": "e6860a4de3e3cfb379a4785654e8260a0ca7db466bc33434fd9d0cc71003a6be",
            "rates.txt": "ceb23d74c0b03cd3fb69b44c15006bc905395b9cb762f36d0f6c9240e8392567",
            "sigma_curves.csv": "60872ea6cdbe00216151538dd8acc2ed22e79296a24bf2406d837fd490011422",
            "spectrum_ref.csv": "dc38d54c9b7a2f19016979762031f5f4913512487469f9fd7a537b73d2237d36",
            "spectrum_trans.csv": "6f041058ae2486be2250b7e12310d42e0a067cec56c36584afdcc887af28d746",
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
    "alpha_report.txt": "06f0f57aaf7ecfb6161cb48ffd7d26f0f9a4a3864ce5df095f8ed66eb5db92a6",
    "counts_all.csv": "436bbd165b16cc4b49d3ab667d5bf18dbe68e96cf4786bbf42a675ac4a208e12",
    "counts_heralded.csv": "282a7c3e2705aa08e028b992b5635974e1942537e2728cff5507f4b7cc273651",
    "rates.txt": "42763f07d60f9b9ea0b32a02850c93e784bbae31e08cf04c5716d02c3642d139",
    "sigma_curves.csv": "727b104b591c0e7b7051a113f3cf184e4625162ced415b2d47861e14be496cad",
    "spectrum_ref.csv": "209f876fa6d0dafce6b277643384f9a25fba683f0da487e22925accec6b55d8f",
    "spectrum_trans.csv": "ef5b587b3acaa570afba165daffa7564dea5e642ae15bdfe8e2f0e8b732004bd",
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
