import pytest

from evolflow import matcore


@pytest.fixture
def pade(monkeypatch):
    """The scaled arguments of the Pade approximants computed so far, as bytes.

    `expm` and `expm_times` both take theirs through `matcore._pade13`.
    """
    calls = []
    approximant = matcore._pade13

    def counted(A, *powers):
        calls.append(A.tobytes())
        return approximant(A, *powers)

    monkeypatch.setattr(matcore, "_pade13", counted)
    return calls
