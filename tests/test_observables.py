import numpy as np
import pytest

from quncert.observables import (
    BUNDLED,
    ObservableFormatError,
    bundled_observable,
    load_observable_file,
    parse_complex_token,
    parse_observable_text,
    pauli_observable,
    su3_pair,
)
from quncert.bounds import complementarity
from quncert.linalg import PAULI_X, PAULI_Y, PAULI_Z


def test_parse_real_token():
    assert parse_complex_token("0.5") == 0.5
    assert parse_complex_token("-1.25e-3") == -1.25e-3


def test_parse_complex_tokens():
    assert parse_complex_token("0.0483473+0.584816i") == 0.0483473 + 0.584816j
    assert parse_complex_token("0.857154-0.976248i") == 0.857154 - 0.976248j


def test_parse_rejects_garbage():
    for bad in ("abc", "1+2j", "1+i", ""):
        with pytest.raises(ObservableFormatError):
            parse_complex_token(bad)


def test_parse_text_infers_dimension():
    m = parse_observable_text("0 1\n1 0")
    assert m.shape == (2, 2)
    assert np.abs(m - PAULI_X).max() == 0


def test_parse_text_reports_position():
    with pytest.raises(ObservableFormatError, match="line 2, column 3"):
        parse_observable_text("0 1\n1 oops")


@pytest.mark.parametrize("text, where", [("1 0\n0 1e400", "line 2, column 3"),
                                         ("1 1-1e400i\n1+1e400i 1", "line 1, column 3"),
                                         ("1 -1e400i\n1e400i 1", "line 1, column 3")])
def test_parse_text_rejects_non_finite_entry_at_its_position(text, where):
    with pytest.raises(ObservableFormatError, match=f"^{where}: complex token .* is not finite$"):
        parse_observable_text(text)


def test_parse_text_rejects_non_square():
    with pytest.raises(ObservableFormatError, match="square"):
        parse_observable_text("1 2 3")


def test_load_observable_file(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("0 -1i\n1i 0\n", encoding="utf-8")
    obs = load_observable_file(str(path))
    assert np.abs(obs.mat - PAULI_Y).max() < 1e-15


def test_bundled_observables_all_valid():
    for name in BUNDLED:
        obs = bundled_observable(name)
        assert np.diff(obs.values).min() > 1e-9
        assert np.abs(obs.mat - obs.mat.conj().T).max() == 0


def test_bundled_first_pair_digits():
    x1 = bundled_observable("x1")
    assert x1.mat[0, 0] == 0.272007
    assert x1.mat[0, 1] == 0.0483473 + 0.584816j
    assert x1.mat[1, 1] == 0.246297
    assert abs(x1.values.sum() - 0.518304) < 1e-12
    z4 = bundled_observable("z4")
    assert z4.mat[1, 0] == 0.332044 - 0.448198j


def test_bundled_dimensions():
    assert bundled_observable("x2").dim == 3
    assert bundled_observable("z2").dim == 3
    for name in ("x1", "z1", "x3", "z3", "x4", "z4"):
        assert bundled_observable(name).dim == 2


def test_pauli_observables():
    assert np.abs(pauli_observable(1).mat - PAULI_X).max() == 0
    assert np.abs(pauli_observable(2).mat - PAULI_Y).max() == 0
    assert np.abs(pauli_observable(3).mat - PAULI_Z).max() == 0
    with pytest.raises(ValueError):
        pauli_observable(4)


def test_su3_pair_shares_one_eigenvector():
    x, z = su3_pair()
    assert x.dim == 3 and z.dim == 3
    assert abs(complementarity(x, z) - 1.0) < 1e-12
