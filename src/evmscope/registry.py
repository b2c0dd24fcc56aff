"""Address-existence oracle: is a 160-bit address registered on the main
network?  Online answers come from a block-explorer transaction listing
(external transactions only); offline answers come from a bundled fixture
table.  Results are cached in a line-oriented text file."""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

# Online lookups: RATE_PER_SECOND a second, after a burst of BURST.
RATE_PER_SECOND = 5.0
BURST = 5
DEFAULT_RETRIES = 4
URL_ENV = "EVMSCOPE_EXPLORER_URL"
KEY_ENV = "EVMSCOPE_EXPLORER_KEY"


class RegistryUnavailable(Exception):
    pass


class RegistryDisabled(Exception):
    pass


def _parse_address(text: str) -> int:
    value = int(text, 16)
    if value < 0 or value >> 160:
        raise ValueError(f"not a 160-bit address: {text}")
    return value


def load_fixture_table(path: str | Path) -> dict[int, bool]:
    """Fixture/cache line format: address,0|1[,timestamp]."""
    table: dict[int, bool] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise ValueError(f"bad registry line: {raw!r}")
        table[_parse_address(parts[0])] = parts[1].strip() == "1"
    return table


class _TokenBucket:
    def __init__(self):
        self.tokens = float(BURST)
        self.updated = time.monotonic()

    def acquire(self) -> None:
        while True:
            now = time.monotonic()
            self.tokens = min(BURST, self.tokens + (now - self.updated) * RATE_PER_SECOND)
            self.updated = now
            if self.tokens >= 1:
                self.tokens -= 1
                return
            time.sleep((1 - self.tokens) / RATE_PER_SECOND)


class AddressRegistry:
    """Modes: online (block-explorer API), offline (fixture table), disabled."""

    def __init__(self, mode: str = "offline",
                 fixture: dict[int, bool] | None = None,
                 cache_path: str | Path | None = None,
                 transport=None):
        if mode not in ("online", "offline", "disabled"):
            raise ValueError(f"unknown registry mode {mode!r}")
        self.mode = mode
        self.fixture = dict(fixture or {})
        self.cache_path = Path(cache_path) if cache_path else None
        self.url = os.environ.get(URL_ENV, "https://api.etherscan.io/api")
        self.api_key = os.environ.get(KEY_ENV, "")
        self._bucket = _TokenBucket()
        self._transport = transport or self._default_transport  # injectable for tests
        self._cache: dict[int, bool] = {}
        self._lock = threading.Lock()  # one query at a time; cache writes serialized
        if self.cache_path and self.cache_path.exists():
            self._cache.update(load_fixture_table(self.cache_path))

    def exists(self, address: int) -> bool:
        if self.mode == "disabled":
            raise RegistryDisabled("address registry is disabled")
        address &= (1 << 160) - 1
        with self._lock:
            if address in self._cache:
                return self._cache[address]
            if self.mode == "offline":
                result = self.fixture.get(address, False)
            else:
                result = self._query_online(address)
            self._cache[address] = result
            self._persist(address, result)
        return result

    def _persist(self, address: int, exists: bool) -> None:
        if not self.cache_path:
            return
        line = f"0x{address:040x},{1 if exists else 0},{int(time.time())}\n"
        with open(self.cache_path, "a") as fh:
            fh.write(line)

    def _query_online(self, address: int) -> bool:
        params = {
            "module": "account",
            "action": "txlist",
            "address": f"0x{address:040x}",
            "page": "1",
            "offset": "1",
        }
        if self.api_key:
            params["apikey"] = self.api_key
        delay = 0.25
        last_error = "no attempt made"
        for attempt in range(DEFAULT_RETRIES):
            if attempt:
                time.sleep(delay)
                delay *= 2
            self._bucket.acquire()
            try:
                doc = self._transport(self.url, params)
            except Exception as exc:  # noqa: BLE001 - network layer varies
                last_error = str(exc)
                continue
            if not isinstance(doc, dict):
                last_error = "malformed response (not an object)"
                continue
            status = str(doc.get("status", ""))
            result = doc.get("result")
            if status == "0" and isinstance(result, str) and "rate limit" in result.lower():
                last_error = "rate limited"
                continue
            if isinstance(result, list):
                return len(result) > 0
            if status == "0":
                # explorer convention: status 0 with no list means no history
                return False
            last_error = "malformed response (no transaction list)"
        raise RegistryUnavailable(last_error)

    @staticmethod
    def _default_transport(url: str, params: dict) -> dict:
        import requests  # imported lazily: offline mode must not need it

        response = requests.get(url, params=params, timeout=10)
        if response.status_code == 429:
            raise RegistryUnavailable("rate limited (HTTP 429)")
        response.raise_for_status()
        return response.json()
