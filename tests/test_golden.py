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
            "events.csv": "e2743b56cf3f96c2b551b2d17c73daa7f31b49d0f17ac6fb7972a76007abb79a",
            "pulse_summary.txt": "99f798283f330f0a53a59533f401bf108375e310e1127a873bf2da44eaee92b9",
            "run_meta.txt": "151a481274035767dec2f76891fadcf853638eaabac5db2816ab781a3fd46aac",
        },
        "analyze": {
            "alpha_report.txt": "f008119085b38ffb3c409371eb32f36899dcad2eddeb0c7af706d333600f9e62",
            "counts_all.csv": "5361c97932e2b4cb8c9ff0a74cec73b16174fb6d3781c3e0bde799c86312fc5b",
            "counts_heralded.csv": "3a02f8ef0a7178ca7d5fb48fedbd40ea145e1a620c30e2202470fbb9a85c0d94",
            "rates.txt": "0d3721ca36daa55110ea5579ba804242d7f5f9d495aca3293e2eb52ca5aec212",
            "sigma_curves.csv": "4b7b6a6ea50ecde1f8b4d8f0d65cae446ab034bdb570111f07934f42830af74a",
            "spectrum_ref.csv": "e3ae19904212ae308b3af29fbb2dcb12f567ae7ee5e12dfd25164dbd8271278e",
            "spectrum_trans.csv": "0f43d7b27b39b61dff600c54e47b882fab5f5aef50a6899167ddb83a6e64e589",
        },
    },
    78: {
        "simulate": {
            "events.csv": "fb4405456e49f3ad2be137f5bd2d8fe43e350a9f2b1f7b673b2a5e95f9fe1454",
            "pulse_summary.txt": "b7cd699b2a943519549c29dcac0dc1bb51aac71ee850d545f7ef4c8686182fa4",
            "run_meta.txt": "b3ec7ecf330811b21c3aab88bad2ac4192b1cb306a1e0c235041d5822027ae07",
        },
        "analyze": {
            "alpha_report.txt": "29b7cb598e489df469689bae2b0bb3a435359ca6edc61ac813337182a8e3b45a",
            "counts_all.csv": "3c5d622192ca5f2552064d4a94156042f7218c5a3039a5570fd5a8720f2dafaa",
            "counts_heralded.csv": "9d92d6c4fdf151e68366cf87ebfe62ab3e5b2e2f2a0bbba717bdafd5d942c58b",
            "rates.txt": "57f8846726eec78f8dba5b8d01a6f20044221244b90df2ab25a273fa6e210f0d",
            "sigma_curves.csv": "b854f3d0baf21c51a1562563001404834c8ff8613df4e1fa6f79676c4451ea45",
            "spectrum_ref.csv": "1f8c2284234bdf03d421ec7a1fe2bc8f08b5a71c04b646299692df98f8edf03a",
            "spectrum_trans.csv": "f61bc308242ca153bbf3f138787b79c55df4ca60268c1378754cb71b2ad29877",
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
    "alpha_report.txt": "78b8e6ee5d8e3001d8fae88905f6e964c20b97c6641a7c61c2777805984bcf87",
    "counts_all.csv": "5361c97932e2b4cb8c9ff0a74cec73b16174fb6d3781c3e0bde799c86312fc5b",
    "counts_heralded.csv": "e8bd4f9b6c96df7bcb90ea74d2346c88d4f08f80a818346c78b0fa72217b2088",
    "rates.txt": "1369c1846b987e4762c3a25c1a224963d1a1c41978f95d2f72b73bd1c93b380c",
    "sigma_curves.csv": "5819b98b3a3f1ad4af98b8beb258d7b5f4c591a1faeaddffe223a65c3bb2fd9e",
    "spectrum_ref.csv": "960dc35508d0fb89f59a85b06ee85b9ff341e19d61524374f982eca4474ef70c",
    "spectrum_trans.csv": "30427bd9ba329145ad8a1f6f6201fa23d418a23d1cced3c170c2bdfb83085883",
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
