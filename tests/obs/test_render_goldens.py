"""Every ``repro.obs`` verb prints, byte for byte, what the render
goldens recorded (see ``tests/obs/render_goldens.py``)."""

import pytest

from tests.obs import render_goldens as rg

GOLDENS = rg.load()


@pytest.fixture(scope="module", params=rg.SUBJECTS)
def archives(request, tmp_path_factory):
    """Two independent same-seed archives of one subject."""
    out = tmp_path_factory.mktemp(request.param)
    paths = [rg.make_archive(request.param, str(out / side))
             for side in "ab"]
    return request.param, paths


@pytest.mark.parametrize("verb", rg.VERBS)
def test_render_matches_golden(archives, verb):
    subject, (path_a, path_b) = archives
    text, code = rg.render(verb, path_a, path_b)
    assert rg.golden(text, code) == GOLDENS[f"{subject}/{verb}"], text
