"""Byte pins: SHA-256 of canonical bound reports and ``cf binet`` output.

The digests were taken from the code before the denominator table, the
single escalation loop and the report codec were introduced, so any
refactor of the shared chain (denominators, heights, linear forms,
transfer, walk) that moves one byte of a report fails here.  Each
``REPORT_PINS`` entry hashes the newline-joined canonical ``to_json()``
documents, ledger included, of one pipeline over one field at one
precision, for every K in the grid and every (y), (l) or (l, b)
parameter; a refused run contributes its error code instead.  The two
sqrt(981451) ``cf binet`` pins (period 2198) were taken from the
product-based construction of c1, c2, c3, c4 and N0, before the closed form.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from cfpow.bounds import theorem_ham2_bound, theorem_ham_bound, theorem_y_bound
from cfpow.cfrac import binet_data, expand
from cfpow.cli import main
from cfpow.errors import InapplicableError, ToolkitError
from cfpow.quadfield import make_quadnum

FIELDS = {
    "sqrt2": (0, 1, 1, 2),
    "mixed": (6, -1, 17, 2),  # (6 - sqrt(2))/17
    "sqrt7": (0, 1, 1, 7),
    "golden": (1, 1, 2, 5),
}
GRID = ((128, (1, 2, 3, 4)), (512, (2, 3)))
PIPELINES = (
    ("y", [(theorem_y_bound, y) for y in (2, 10)]),
    ("ham", [(theorem_ham_bound, ell) for ell in (2, 3)]),
    ("ham2", [(theorem_ham2_bound, ell, b) for ell in (2, 3) for b in (2, 10)]),
)

REPORT_PINS = {
    "sqrt2/y/128": "def3483ae5d548f168e598cdbeda0ee87ec1eb5a978e004a39d1c2e758dc54f1",
    "sqrt2/ham/128": "566865df9340501e3f22e694ab6738313b444d7aa64e60843a9760c7916ba410",
    "sqrt2/ham2/128": "c5136e84714e20911b3f17f79004584bdc62bdb8e6f39d9f0a84d07ee0cf8e06",
    "sqrt2/y/512": "6f4686fa6539e69a86480eb1edff144e48bb366273cae34dc53cabdecd8a01eb",
    "sqrt2/ham/512": "afcdaa025c0f2199a17488a62fdc257dadc397b1877ad1dd98e130ddf870a4b8",
    "sqrt2/ham2/512": "bc8b9563c81197afedada99db24b63507278d2002fc77227bec70292ecd84eac",
    "mixed/y/128": "2c1c5bc23be0ffe201e42bdcf7c58ead7095e9819601be9fb4ead86485078650",
    "mixed/ham/128": "e25ebd6666ddd6c8f78505ddbf63d442d282a1a5496d2a7b3566c6fc9ba0775e",
    "mixed/ham2/128": "8bbd2dfa972dccf8f222a39d5402e4d5c0289a55e9994403d22bc3c516760d8a",
    "mixed/y/512": "8449266fab887d9ee1cd29061e04ed105512ec9b40d32eb4c23da2534e071f70",
    "mixed/ham/512": "0f42b08569b9a2c8867e5df2bae6530bf24766cb8176cbcf34b52ff348e05d42",
    "mixed/ham2/512": "fd1be850f75d1f19fa710e60c93a5dfaa5d5d35e7b1c98fd3170f6d6e477aaa8",
    "sqrt7/y/128": "315a89ff7d046a3e0ee5996d1cc3b17bdf3bf210dacf0712a08f42e78f6b6239",
    "sqrt7/ham/128": "70dd5f1889f2f0c224dc7460f071f0fb574865ba2b7d997071de0250922cf509",
    "sqrt7/ham2/128": "824a5cd1b5b12574890c1d8cc598a247464926c35924db1f1e28284deffd7f61",
    "sqrt7/y/512": "379f9555931ea0cda65240a5d08bc91d686c71a99ee883c2554cd94be614a84a",
    "sqrt7/ham/512": "4d202f25499f8210166aa3886861405998fa4ac3e94d06c8bc46d3427d894e8c",
    "sqrt7/ham2/512": "c6e808c37710204d44fc8c330a27fdaa9458b4f8d13f2799b5772b1340b67adc",
    "golden/y/128": "55df2871ef3f35642360de5f0e478c5b8e7edab1ae809b2a2fda8e151057caf1",
    "golden/ham/128": "bd46cbe5d89549bd44b54b18b6edc15b366327ee03500c9b07664bd1b39be871",
    "golden/ham2/128": "26d1784a0d79f486a387be184102473eecae14b6acc3eded4786cacc0695a2bf",
    "golden/y/512": "e375d05a1fffcf67626ee336e9969fc187c7ae8e8fcf8d8adf5ceda6608b1a1b",
    "golden/ham/512": "2c687a11b3879a59817a8382bd2682a8702cbf536039110cf4b9d7efeccfc6e2",
    "golden/ham2/512": "b613c4ecb3c2bccc58a50a5f57f53617061f780d594238bfbf7b212cfcb217d5",
}

BINET_PINS = {
    ("6,-1,17,2", "128"): "6ee875f48bfa7fe1e3c41806796bd72b6a2e0c91e41395d8b423910de5720800",
    ("6,-1,17,2", "512"): "6e114e13beb002ed672dd5b3695d4ed3d94a537e5c51e0eb814c4791ad066496",
    ("0,1,1,7", "128"): "8ff808be2d3efa72bf5a845a765fa87599638451b3dd9570a17d3c6134bc5caf",
    ("0,1,1,7", "512"): "9d8e4ab34b0db0f02da9ef1c6780e8e03b03a862dd936775772393fbf6267930",
    ("0,1,1,981451", "128"): "229801a98f44f7645f2db5b65e298ec8b61f376e908e57d0a1f404eb80dcd33a",
    ("0,1,1,981451", "512"): "fd3b737f43b851a5f645bd2a4af0e532727bef9ba0a0f10e4b25a68097066371",
}


def _canon(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _report_line(fn, *args) -> str:
    try:
        return _canon(fn(*args).to_json())
    except ToolkitError as exc:
        return _canon({"error": exc.code})


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_report_bytes_are_pinned(field):
    p, q, r, d = FIELDS[field]
    cf = expand(make_quadnum(Fraction(p, r), Fraction(q, r), d))
    for bits, Ks in GRID:
        bd = binet_data(cf, bits)
        for label, calls in PIPELINES:
            lines = [_report_line(fn, bd, K, *rest) for K in Ks for fn, *rest in calls]
            assert _sha("\n".join(lines)) == REPORT_PINS[f"{field}/{label}/{bits}"], (field, label, bits)


def test_ham_refuses_the_golden_field():
    bd = binet_data(expand(make_quadnum(Fraction(1, 2), Fraction(1, 2), 5)))
    with pytest.raises(InapplicableError):
        theorem_ham_bound(bd, 2, 2)


@pytest.mark.parametrize("alpha,bits", sorted(BINET_PINS))
def test_cf_binet_bytes_are_pinned(capsys, alpha, bits):
    assert main(["--alpha", alpha, "--precision-bits", bits, "cf", "binet"]) == 0
    assert _sha(capsys.readouterr().out) == BINET_PINS[(alpha, bits)]
