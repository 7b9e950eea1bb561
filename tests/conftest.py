import pytest

from evolflow import matcore


@pytest.fixture
def pade(monkeypatch):
    """The scaled arguments of the Pade approximants computed so far, as bytes.

    `expm` and `expm_times` both take theirs through `matcore._pade13`.
    One entry per approximant row: a stacked call of k scaled arguments,
    (k, n, n), adds k entries, one call on one matrix adds one.
    """
    calls = []
    approximant = matcore._pade13

    def counted(A, *powers):
        calls.extend(row.tobytes() for row in A.reshape(-1, *A.shape[-2:]))
        return approximant(A, *powers)

    monkeypatch.setattr(matcore, "_pade13", counted)
    return calls
