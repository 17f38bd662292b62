"""Golden outputs: sha256 of every file ``model``, ``simulate`` and ``analyze``
write.

The runs use criterion 10's reduced grid; ``simulate`` and ``analyze`` run at
two seeds, and ``model`` runs on the bundled reference grid too.  ``model``
builds one pair intensity on each grid (both fine enough for the bundled
rocking width, so ``spdc.sweep_grid`` leaves them unchanged): its rates and
spectra fold the 2-D W, its sweep folds the ridge zeros W is deposited
from.  So its hashes pin the ridge build of the pair intensity,
the spectra fold and the ridge sweep fold.  A refactor that leaves the
arithmetic and the random-number consumption unchanged must reproduce these
bytes exactly; a change that alters them on purpose says so in CHANGES.md
and regenerates the tables once.
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
    "bragg_sweep.csv": "88bd4c31a20f96b37f19836339fdc5918c17b85d905c0f7504a51451530586ef",
    "model_spectra.csv": "585afd1a2bfd614db435247be7e85646444845cad0f6d17a42e378da1263c93f",
    "model_summary.txt": "f760caaa17507cfc64f1b84c4965a4dd2c0447e76c73ab5501dce6162faadbe5",
}

REFERENCE_MODEL_GOLDEN = {
    "bragg_sweep.csv": "4b6ad67ca0f95e4b2a2873ffe48f7c2cb0f93f4a4d60f3a6a2e555f3d24f1e88",
    "model_spectra.csv": "7693c94752c3a92b6caed42be8a6c9859d820ff1e999b9b60e6ed7758d736155",
    "model_summary.txt": "9ff6f96e41a2c1bbfc834d570e11d9b76ae8c6adfb8ae3d0237b700d67fbb8ae",
}

GOLDEN = {
    77: {
        "simulate": {
            "events.csv": "86d8721a5b16a759629f0527f8680c42ccc54b81ef38352097dc1961be5f9212",
            "pulse_summary.txt": "5712f71c01010279eab9548764e9c0043ef3880c32b6b83816c51570f607d07f",
            "run_meta.txt": "3b5c0db6b8bc6684b343e0bfb751287dc89f6cf4ec9be698d75c50d19777bfe3",
        },
        "analyze": {
            "alpha_report.txt": "0e46e24bef8b1c91a6ce494fc970cee191b60e46f488c34781e324f9554d8178",
            "counts_all.csv": "4e004313d5838a30f71f7725000b6b23d7154f694420dabc86ee49cc86665998",
            "counts_heralded.csv": "db7a7d15e0064db6740b817d2d9229ff5ce694c7c99a1e7adab5ff8b4abaf4a2",
            "rates.txt": "561349604106001f9a32934db5ae6a17bfd09b50add8a3f55e86b355ac631f45",
            "sigma_curves.csv": "578ca4d12cfb01c260774adadd373500b79b5b402d9e756a6acb7e9cedc555a0",
            "spectrum_ref.csv": "93e14a6d24958c6d02e5e709794c432698f4e56d4a247b9516f906025e622bb1",
            "spectrum_trans.csv": "83d9c489a79b0c4df367d2a3e129ea5261c43086d1d4b56b674d7d046ba2797f",
        },
    },
    78: {
        "simulate": {
            "events.csv": "bd5d3ce035c92e65b26dfbddbda4616112828c710e9be63b3e3b637a61efdb72",
            "pulse_summary.txt": "15b506d841757f391c3817c87ac876959bd52817eea9481227e04aa9ed98b4ab",
            "run_meta.txt": "9808d7c6fbf526add0454e68a2d136bbc5981885f35621f207aac9c0c5af44fb",
        },
        "analyze": {
            "alpha_report.txt": "73d07793ddf6c0fac1d747402b053c2c12eb4a8e4440bad0096cd7d0bac4963e",
            "counts_all.csv": "4047000140973befbf2582d5a6002dbb1b9d8933f909942f9aaa29e8cb85ba7a",
            "counts_heralded.csv": "189f6da9b27c52bc5fcca44ed7676d9b1646984e3475b6ddcb966dec0e82d271",
            "rates.txt": "f4dc5ba44ca3c0b4836e6eb2c71a990fd87e6c16812563d9c84b22301c718d91",
            "sigma_curves.csv": "77fce1fbad99e39955201595b4c366f81af0797d114d896cb2a5e25565d11527",
            "spectrum_ref.csv": "87ecfb092e28ab229d0ddd53f0db4f6a290d3ba9483bb5e1b781ff3bd4de55d3",
            "spectrum_trans.csv": "e164619846c4b44c60fd24b94b2aafc3aa12bd72c3f10e4cb78124b12cb723dd",
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
    "alpha_report.txt": "0e46e24bef8b1c91a6ce494fc970cee191b60e46f488c34781e324f9554d8178",
    "counts_all.csv": "4e004313d5838a30f71f7725000b6b23d7154f694420dabc86ee49cc86665998",
    "counts_heralded.csv": "db7a7d15e0064db6740b817d2d9229ff5ce694c7c99a1e7adab5ff8b4abaf4a2",
    "rates.txt": "561349604106001f9a32934db5ae6a17bfd09b50add8a3f55e86b355ac631f45",
    "sigma_curves.csv": "e9e43e4e61bef7b4a059d9bb6ebc4968fb645d52e578c8148f8389ae9cf79197",
    "spectrum_ref.csv": "ffc879b180572a81e2b4cd30635d3db6abc21731f7bb7761af19a9e42eb23737",
    "spectrum_trans.csv": "efa5aa3a1f455b419cdac324e07b90157089afbd6a48eb1b33ab031886f9fa00",
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
