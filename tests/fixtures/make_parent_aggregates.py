"""Regenerate ``parent_aggregate_{public,hashed}.json``: folded artifacts.

    PYTHONPATH=<checkout>/src:<checkout> python tests/fixtures/make_parent_aggregates.py

Both files were written by running this against the commit *before*
hashed boundaries were committed by parcel (60451b4, where a hashed cut
absorbed every variable alive across it).  ``public`` mode is untouched by
that change, so ``tests/test_aggregate.py`` requires today's split, set-ups
and proofs to fold to the same bytes; the ``hashed`` artifact describes
circuits this tree no longer builds, and only has to keep verifying — the
artifact format and ``verify_aggregate`` did not move.
"""

from pathlib import Path

from repro.aggregate import fold, prove_split, setup_split
from repro.core.compiler import PrivacySetting, ZenoCompiler, zeno_options
from tests.conftest import tiny_conv_model, tiny_image

CRS_SEED = 0xC0FFEE


def folded(mode: str) -> str:
    """The tiny conv model split in ``mode``, proved and folded, as JSON."""
    artifact = ZenoCompiler(
        zeno_options(PrivacySetting.PRIVATE_IMAGE_PUBLIC_WEIGHTS)
    ).compile_model(tiny_conv_model(), tiny_image())
    split = artifact.split(mode=mode)
    setups = setup_split(split, crs_seed=CRS_SEED)
    proofs = prove_split(split, setups, crs_seed=CRS_SEED)
    return fold(split, setups, [proofs], crs_seed=CRS_SEED).to_json()


def fixture_path(mode: str) -> Path:
    return Path(__file__).with_name(f"parent_aggregate_{mode}.json")


if __name__ == "__main__":
    for mode in ("public", "hashed"):
        fixture_path(mode).write_text(folded(mode))
