import pytest

from evolflow import matcore


class Approximants(list):
    """The arguments of the Pade approximants computed so far, as bytes, with `degrees` beside them."""

    def __init__(self):
        super().__init__()
        self.degrees = []

    def clear(self):
        super().clear()
        self.degrees.clear()


@pytest.fixture
def pade(monkeypatch):
    """The scaled arguments 2**-s t X of the Pade approximants computed so far, as bytes, and
    their degrees.

    `expm` and `expm_times` both take theirs through `matcore._pade`.  One
    entry per approximant row: a stacked call of k scaled arguments,
    (k, n, n), adds k entries, one call on one matrix adds one;
    `pade.degrees[i]` is the degree m of entry i.
    """
    calls = Approximants()
    approximant = matcore._pade

    def counted(A, powers, m):
        rows = A.reshape(-1, *A.shape[-2:])
        calls.extend(row.tobytes() for row in rows)
        calls.degrees.extend([m] * len(rows))
        return approximant(A, powers, m)

    monkeypatch.setattr(matcore, "_pade", counted)
    return calls
