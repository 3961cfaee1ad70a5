"""Every document of a fixed command list keeps every bit (`golden_docs.py` writes the goldens).

On the numpy and BLAS build that wrote them the text must match exactly.
On another build the bits may differ, so each number is compared to a
relative 1e-12 instead, with a warning, and the digests are not checked.
"""

import json
import warnings

import pytest

import golden_docs as G

SAME_BUILD = G.build_info() == json.loads((G.GOLDEN / "build.json").read_text())


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return G.run_documents(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", G.DOCUMENTS)
def test_document_keeps_every_bit(produced, name):
    want = (G.GOLDEN / f"{name}.json").read_text().rstrip("\n")
    if SAME_BUILD:  # the text itself: a change of encoding is a change too
        assert produced[name] == want, f"{name}: {G.difference(produced[name], want) or 'text differs'}"
        return
    warnings.warn(f"{name}: numpy/BLAS build differs from tests/golden/build.json; "
                  "comparing numbers to a relative 1e-12")
    problem = G.difference(produced[name], want, rel=1e-12)
    assert problem is None, f"{name}: {problem}"


@pytest.mark.parametrize("name", G.DIGESTS)
def test_default_config_document_digest(produced, name):
    if not SAME_BUILD:
        pytest.skip("numpy/BLAS build differs from tests/golden/build.json")
    assert G.sha256(produced[name]) == json.loads((G.GOLDEN / "digests.json").read_text())[name], name
