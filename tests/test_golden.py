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
            "events.csv": "2643b768331eee91c8188b062c87d03b256b9c5d15514755a6d347641f06ad9b",
            "pulse_summary.txt": "9569cc53c0e412bbea32d08b181f6cfc5f4f2dd2b7e37df7fd281aeaf8d574d3",
            "run_meta.txt": "b492872a35889aad17c30decb54d6e60de74f3ef087ef3fe30e0b6ff08854146",
        },
        "analyze": {
            "alpha_report.txt": "fbd71cdefeba10b541274270cda8acde044a75840baaf3a7f7dc6aa641e39c14",
            "counts_all.csv": "fef04bc530c3cb84b9ac4c35c328eee96d7aa8636d5d466784985b97acd1cae0",
            "counts_heralded.csv": "48d84505fd10c839b642158fe96b7dac90edebaf8a69c0847582ec3ef7deded1",
            "rates.txt": "ecd27e654f8dcccaea19e3b143eae8371ec187707e1819422208f238f88d5a97",
            "sigma_curves.csv": "e88f09a21dbed1e2cd26b371095781e8eb5aaad5f2c3fb09bd8e1887f97ea707",
            "spectrum_ref.csv": "9610dc1237b4bea82093abe7d75acc465970bb671275d8004ef3ed950a7b39ad",
            "spectrum_trans.csv": "c8d0b8e028be5dd16744fa596a68b6e2b88e729f1b071d398c1de640e2bbfe16",
        },
    },
    78: {
        "simulate": {
            "events.csv": "4efe723e0ee5cb82137edcf3cc630bd6cb3f60799026c39671cc4516015e6730",
            "pulse_summary.txt": "ed45daae1106916d0ad8c39e71a7549b39f691d64597aac89b079db18a5a1fec",
            "run_meta.txt": "40e72d6b347a2bd3bdaf8c9dffe5768f5f75a45b6146f626c99398a167e4c366",
        },
        "analyze": {
            "alpha_report.txt": "45dfdec35c7a9b033e8ee3259b648dd7082197ac4b0b98f710a8353228c589e4",
            "counts_all.csv": "0151b3080e64b5142fdb0b18f6790c1344514037b34e060b4250171d714138b8",
            "counts_heralded.csv": "9ce93ce43eb817a867ac240654929e00e22cab370b670ddc4c431dd219bbb68f",
            "rates.txt": "306e60e530171843a5838390de99e9725298ccc00edae79565aea89a002ff0a1",
            "sigma_curves.csv": "ad6827f46a792428e96f884ee9c4e1038ed3175aa8ebf3ee993e174d27317c9f",
            "spectrum_ref.csv": "04148abfe86ba66302469e9c7c04ac78584672aefa00eeb2f59e4087bd60a12f",
            "spectrum_trans.csv": "023ebbc5fbf15c4c84b48f58925bd0e14fde54d6d4538b4a0104300885d2818f",
        },
    },
}

# ``simulate`` at the benchmark's scale: 600 s at seed 7 on the bundled
# profile, 47 time slices.  ``GOLDEN``'s 30 s runs cross only 2 slice edges;
# this run crosses 46 and draws about 3 M trigger logic times, so it pins
# the per-slice merges of the dense starts and the routing of every pair.
LONG_SIMULATE = ["--seed", "7", "--set", "source.duration_s=600"]
LONG_SIMULATE_GOLDEN = {
    "events.csv": "c30efe4171940fc28a01e8d53c358969e79b8654660beb67db4cc8532e805fdd",
    "pulse_summary.txt": "cbc75b1f435c0f2473701400c34f054f617acc99e010fbf528c382b9a7fafae1",
    "run_meta.txt": "51f2b1bee6b263e4cce71bb863ec92f27724b397d8ac093d881e933098011e15",
}

# ``analyze`` of the seed-77 file under a non-default selection: spectra and
# sigma read the band and the sum window from the flagged table, so a
# version that falls back to the defaults changes the last three files.
SELECTION = [
    "--set", "daq.sum_halfwidth_kev=0.3", "--set", "daq.acceptance_lo_kev=7.5",
    "--set", "daq.acceptance_hi_kev=16.5",
]
SELECTION_GOLDEN = {
    "alpha_report.txt": "8f16ff8ab3271d62066e662dbb3d4c18e34ba2205334f9bf8be58eecad90c156",
    "counts_all.csv": "fef04bc530c3cb84b9ac4c35c328eee96d7aa8636d5d466784985b97acd1cae0",
    "counts_heralded.csv": "6945cd696f344da6db6fc3a4ed4f10672884a801fd3bef7eafe7f11fdbe1e9ae",
    "rates.txt": "d686c8cae7ded8e8b59d640c4bb55ecad883c889bac8b004484d4deeb54c3c5a",
    "sigma_curves.csv": "3561f4d471693ae08c78cb1e19e2a5ef08c535de83ba0795509d9d1a53a93bf8",
    "spectrum_ref.csv": "a396706743b8a80a6549385d4aa01d743844d6fec4be47fe4ebac16b7eb80d55",
    "spectrum_trans.csv": "99c19a6cdb94520d3cdf14dd5deae1be518936a7343184adeae334e45ec7f4b5",
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


def test_benchmark_scale_simulate_matches_golden_hashes(tmp_path):
    assert main(["simulate", "--outdir", str(tmp_path)] + LONG_SIMULATE) == EXIT_OK
    assert _digests(tmp_path) == LONG_SIMULATE_GOLDEN


def test_model_outputs_match_golden_hashes(tmp_path):
    assert main(["model", "--outdir", str(tmp_path)] + REDUCED_GRID) == EXIT_OK
    assert _digests(tmp_path) == MODEL_GOLDEN


def test_reference_grid_model_outputs_match_golden_hashes(tmp_path):
    assert main(["model", "--outdir", str(tmp_path)]) == EXIT_OK
    assert _digests(tmp_path) == REFERENCE_MODEL_GOLDEN
