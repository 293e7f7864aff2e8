"""Figure 9 — the learned M5 pruned model tree for halo prediction.

Regenerates (a) the text dump of the halo model tree learned for the
i7-2600K — the artefact Figure 9 shows a fragment of — and (b) verifies the
structural claim the paper draws from it: halo depends on band and cpu-tile
in addition to the instance features, while cpu-tile is predicted from the
instance features alone.
"""

from repro.autotuner.models import BAND_FEATURES, HALO_FEATURES
from repro.autotuner.training import INPUT_FEATURES

from benchmarks._common import write_result


def test_fig9_halo_model_tree_dump(tuners):
    tuner = tuners["i7-2600K"]

    text = tuner.model.model_tree_text("halo")
    header = (
        "Figure 9 — M5 pruned model tree predicting halo for the i7-2600K\n"
        f"features: {list(HALO_FEATURES)}\n"
    )
    write_result("fig9_halo_model_tree_i7-2600K.txt", header + text)

    assert "LM" in text
    # At least one linear model must actually use band or cpu_tile, mirroring
    # the paper's LM1 (halo = f(tsize, dsize, cpu-tile, band)).
    assert ("band" in text) or ("cpu_tile" in text)


def test_fig9_feature_dependencies_match_paper(tuners):
    def feature_sets():
        return {
            "halo": list(HALO_FEATURES),
            "band": list(BAND_FEATURES),
            "cpu_tile": list(INPUT_FEATURES),
        }

    feats = feature_sets()
    write_result(
        "fig9_feature_dependencies.txt",
        "\n".join(f"{k}: {v}" for k, v in feats.items()),
    )
    # halo sees band and cpu-tile; cpu-tile sees only the input parameters.
    assert "band" in feats["halo"] and "cpu_tile" in feats["halo"]
    assert feats["cpu_tile"] == ["dim", "tsize", "dsize"]
    # band additionally sees the gpu-tile (GPU-use) decision.
    assert "gpu_tile" in feats["band"]


def test_fig9_band_tree_dump(tuners):
    tuner = tuners["i7-3820"]
    text = tuner.model.model_tree_text("band")
    write_result("fig9_band_model_tree_i7-3820.txt", text)
    assert "LM" in text
