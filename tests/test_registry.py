import socket

import pytest

from evmscope.registry import (
    KEY_ENV,
    URL_ENV,
    AddressRegistry,
    RegistryDisabled,
    RegistryUnavailable,
    load_fixture_table,
)

from conftest import REGISTRY_TXT

SALE = 0x0C4740F71323129669424D1AE06C42AEE99DA30E
DEV = 0x0639C169D9265CA4B4DECE693764CDA8EA5F3882


def test_fixture_table_parses():
    table = load_fixture_table(REGISTRY_TXT)
    assert table[SALE] is False
    assert table[DEV] is True


def test_offline_lookup():
    reg = AddressRegistry(mode="offline", fixture={SALE: False, DEV: True})
    assert reg.exists(SALE) is False
    assert reg.exists(DEV) is True
    # unknown addresses default to unregistered
    assert reg.exists(0x1234) is False


def test_disabled_mode_refuses_queries():
    reg = AddressRegistry(mode="disabled")
    with pytest.raises(RegistryDisabled):
        reg.exists(DEV)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        AddressRegistry(mode="sometimes")


def test_idempotent_within_run():
    reg = AddressRegistry(mode="offline", fixture={DEV: True})
    assert [reg.exists(DEV) for _ in range(3)] == [True, True, True]


def test_offline_mode_never_touches_network(monkeypatch):
    def explode(*args, **kwargs):
        raise AssertionError("network I/O attempted in offline mode")

    monkeypatch.setattr(socket, "create_connection", explode)
    monkeypatch.setattr(socket.socket, "connect", explode)
    calls = []
    reg = AddressRegistry(mode="offline", fixture={DEV: True},
                          transport=lambda url, p: calls.append(p))
    assert reg.exists(DEV) is True
    assert reg.exists(SALE) is False
    assert calls == []


def test_cache_round_trip(tmp_path):
    cache = tmp_path / "cache.txt"
    first = AddressRegistry(mode="offline", fixture={DEV: True}, cache_path=cache)
    assert first.exists(DEV) is True
    content = cache.read_text()
    assert content.startswith(f"0x{DEV:040x},1,")
    # a second client with an empty fixture answers from the cache
    second = AddressRegistry(mode="offline", fixture={}, cache_path=cache)
    assert second.exists(DEV) is True


def test_online_nonempty_history_means_registered():
    calls = []

    def transport(url, params):
        calls.append(params)
        return {"status": "1", "result": [{"hash": "0xabc"}]}

    reg = AddressRegistry(mode="online", transport=transport)
    assert reg.exists(DEV) is True
    assert calls[0]["action"] == "txlist"
    assert calls[0]["address"] == f"0x{DEV:040x}"


def test_online_queries_the_explorer_the_environment_names(monkeypatch):
    monkeypatch.setenv(URL_ENV, "https://explorer.invalid/api")
    monkeypatch.setenv(KEY_ENV, "key-123")
    calls = []

    def transport(url, params):
        calls.append((url, params.get("apikey")))
        return {"status": "1", "result": [{}]}

    reg = AddressRegistry(mode="online", transport=transport)
    assert reg.exists(DEV) is True
    assert calls == [("https://explorer.invalid/api", "key-123")]


def test_online_empty_history_means_unregistered():
    reg = AddressRegistry(mode="online",
                          transport=lambda url, p: {"status": "0", "result": []})
    assert reg.exists(SALE) is False


def test_online_caches_repeat_queries():
    hits = []
    reg = AddressRegistry(
        mode="online",
        transport=lambda url, p: hits.append(1) or {"status": "1", "result": [{}]})
    assert reg.exists(DEV) is True
    assert reg.exists(DEV) is True
    assert len(hits) == 1


def test_rate_limit_backoff_then_success(monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    answers = [
        {"status": "0", "result": "Max rate limit reached"},
        {"status": "1", "result": [{}]},
    ]
    reg = AddressRegistry(mode="online", transport=lambda url, p: answers.pop(0))
    assert reg.exists(DEV) is True
    assert answers == []  # both answers asked for


def test_persistent_failure_raises_unavailable(monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)

    def transport(url, params):
        raise ConnectionError("boom")

    reg = AddressRegistry(mode="online", transport=transport)
    with pytest.raises(RegistryUnavailable):
        reg.exists(DEV)


def test_backoff_doubles_between_attempts(monkeypatch):
    sleeps = []
    monkeypatch.setattr("evmscope.registry.time.sleep", lambda s: sleeps.append(s))
    calls = []
    reg = AddressRegistry(mode="online",
                          transport=lambda url, p: calls.append(p) or "not an object")
    with pytest.raises(RegistryUnavailable, match="not an object"):
        reg.exists(DEV)
    assert len(calls) == 4
    assert sleeps == [0.25, 0.5, 1.0]  # none after the last attempt


def test_malformed_response_raises_unavailable(monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    reg = AddressRegistry(mode="online", transport=lambda url, p: {"status": "1"})
    with pytest.raises(RegistryUnavailable):
        reg.exists(DEV)


def test_token_bucket_limits_rate(monkeypatch):
    sleeps = []
    monkeypatch.setattr("evmscope.registry.time.sleep", lambda s: sleeps.append(s))
    reg = AddressRegistry(mode="online",
                          transport=lambda url, p: {"status": "1", "result": [{}]})
    for i in range(8):
        reg.exists(i + 1)
    assert sleeps  # the sixth query within the burst must wait
