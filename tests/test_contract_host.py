"""The host fingerprint the digest pins were recorded under, and the
message a failing pin gives when the running host differs from it."""

import json

from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import contract_host
from contract_host import CONTRACT, fingerprint, host_difference


def _recorded():
    return json.loads(CONTRACT.read_text())["host"]


def _host(monkeypatch, numpy, simd):
    monkeypatch.setattr(contract_host, "fingerprint", lambda: {"numpy": numpy, "simd": simd})


def test_the_fingerprint_lists_the_enabled_dispatch_targets_in_dispatch_order():
    here = fingerprint()
    assert here["simd"] == [t for t in __cpu_dispatch__ if __cpu_features__[t]]
    assert all(__cpu_features__[t] for t in here["simd"])
    assert isinstance(here["numpy"], str)


def test_the_contract_records_a_fingerprint_of_known_targets():
    recorded = _recorded()
    assert set(recorded) == {"numpy", "simd"}
    assert isinstance(recorded["numpy"], str)
    assert recorded["simd"] and all(t in __cpu_dispatch__ for t in recorded["simd"])


def test_a_pin_failing_on_the_recorded_host_says_the_bytes_moved(monkeypatch):
    recorded = _recorded()
    _host(monkeypatch, recorded["numpy"], list(recorded["simd"]))
    message = host_difference()
    assert message.startswith("pinned on this host's fingerprint")
    assert "the bytes moved" in message


def test_a_target_recorded_but_not_enabled_here_is_named(monkeypatch):
    recorded = _recorded()
    _host(monkeypatch, recorded["numpy"], recorded["simd"][:-1])
    message = host_difference()
    assert f"recorded but not enabled here: {recorded['simd'][-1:]}" in message
    assert "enabled here but not recorded: none" in message


def test_a_target_enabled_here_but_not_recorded_is_named(monkeypatch):
    recorded = _recorded()
    _host(monkeypatch, recorded["numpy"], recorded["simd"] + ["NOT_A_TARGET"])
    message = host_difference()
    assert "recorded but not enabled here: none" in message
    assert "enabled here but not recorded: ['NOT_A_TARGET']" in message


def test_a_numpy_version_alone_is_named(monkeypatch):
    recorded = _recorded()
    _host(monkeypatch, "0.0", list(recorded["simd"]))
    message = host_difference()
    assert f"numpy {recorded['numpy']} recorded, 0.0 here" in message
    assert "recorded but not enabled here: none" in message
    assert "enabled here but not recorded: none" in message
