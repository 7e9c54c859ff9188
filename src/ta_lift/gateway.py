"""Completion backends: HTTP chat-completions, deterministic replay, cache.

Three interchangeable backends implement `complete(prompt, params)`:

* `HttpBackend` talks to an OpenAI-compatible chat-completions endpoint,
  configured through TA_LIFT_API_BASE / TA_LIFT_API_KEY / TA_LIFT_MODEL.
* `ReplayBackend` serves stored completions and fails loudly on a miss, so
  the whole test suite runs without network access.
* `CacheBackend` wraps another backend with a content-addressed file cache
  whose files double as replay fixtures.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol

from .prompts import Prompt


class BackendError(Exception):
    """A non-retryable transport or server failure."""

    def __init__(self, status: int, body: str):
        self.status = status
        self.body = body[:500]
        super().__init__(f"backend returned status {status}: {self.body}")


class BackendTimeout(Exception):
    """The backend did not answer within the configured timeout."""


class ReplayMiss(Exception):
    """Replay backend had no stored completion for a prompt."""

    def __init__(self, fingerprint: str, index: int = 0):
        self.fingerprint = fingerprint
        self.index = index
        super().__init__(f"no replay fixture for prompt {fingerprint[:12]}... sample {index}")


@dataclass(frozen=True)
class GenerationParams:
    model: str = "gpt-4-turbo"
    temperature: float = 0.8
    n_samples: int = 50
    max_tokens: int = 2048
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")


@dataclass(frozen=True)
class Completion:
    text: str
    backend_id: str
    cached: bool = False
    usage: dict[str, int] | None = None


class Backend(Protocol):
    def complete(self, prompt: Prompt, params: GenerationParams) -> list[Completion]: ...


def _canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def params_hash(params: GenerationParams) -> str:
    record = {
        "model": params.model,
        "temperature": params.temperature,
        "n_samples": params.n_samples,
        "max_tokens": params.max_tokens,
        "seed": params.seed,
    }
    return hashlib.sha256(_canonical(record).encode("utf-8")).hexdigest()


def cache_key(prompt: Prompt, params: GenerationParams, index: int) -> str:
    record = {"fingerprint": prompt.fingerprint, "params": params_hash(params), "index": index}
    return hashlib.sha256(_canonical(record).encode("utf-8")).hexdigest()


def _entry_path(directory: Path, key: str) -> Path:
    return directory / key[:2] / f"{key}.json"


def store_completion(directory: Path, prompt: Prompt, params: GenerationParams, index: int, text: str) -> Path:
    """Write one completion record atomically; returns the file path."""
    key = cache_key(prompt, params, index)
    path = _entry_path(directory, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "fingerprint": prompt.fingerprint,
        "params": params_hash(params),
        "index": index,
        "completions": [text],
    }
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(record, indent=2, ensure_ascii=False) + "\n")
    os.replace(tmp, path)
    return path


def load_completion(directory: Path, prompt: Prompt, params: GenerationParams, index: int) -> str | None:
    path = _entry_path(directory, cache_key(prompt, params, index))
    if not path.exists():
        return None
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError):  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        record = None
    completions = record.get("completions") if isinstance(record, dict) else None
    if not completions or not isinstance(completions, list) or not isinstance(completions[0], str):
        raise BackendError(0, f"cache record {path} is not a readable JSON object whose 'completions' list starts "
                              "with a string")
    return completions[0]


def _default_post(url: str, headers: dict[str, str], payload: dict, timeout: float) -> tuple[int, dict]:
    """POST `payload` as JSON; the status and the JSON body, or {"raw": text} for a body that is not JSON."""
    # Imported here, as only this backend needs them: at start-up they cost a replay run about 3 MB.
    import http.client
    import urllib.error
    import urllib.request

    try:
        request = urllib.request.Request(url, json.dumps(payload).encode("utf-8"), headers, method="POST")
        with urllib.request.urlopen(request, timeout=timeout) as response:
            status, raw = response.status, response.read()
    except urllib.error.HTTPError as err:
        status, raw = err.code, err.read()
    except TimeoutError as err:
        raise BackendTimeout(str(err)) from err
    except urllib.error.URLError as err:
        if isinstance(err.reason, TimeoutError):
            raise BackendTimeout(str(err.reason)) from err
        raise BackendError(0, str(err.reason)) from err
    except (OSError, ValueError, http.client.HTTPException) as err:  # ValueError: a URL urllib cannot use
        raise BackendError(0, str(err) or type(err).__name__) from err
    text = raw.decode("utf-8", errors="replace")
    try:
        body = json.loads(text)
    except (ValueError, RecursionError):
        body = {"raw": text}
    return status, body


def _reply_texts(status: int, body: object, n: int) -> list[str]:
    """The message content of the first `n` choices of a chat-completions body; BackendError names what is missing."""
    choices = body.get("choices") if isinstance(body, dict) else None
    if not isinstance(choices, list):
        raise BackendError(status, "reply is not a JSON object with a 'choices' list")
    if len(choices) < n:
        raise BackendError(status, f"expected {n} choices, got {len(choices)}")
    texts = []
    for index, choice in enumerate(choices[:n]):
        message = choice.get("message") if isinstance(choice, dict) else None
        content = message.get("content") if isinstance(message, dict) else None
        if not isinstance(content, str):
            raise BackendError(status, f"choice {index} is not an object whose 'message' object has a string "
                                       "'content'")
        texts.append(content)
    return texts


@dataclass
class HttpBackend:
    """OpenAI-compatible chat-completions client with retries."""

    base_url: str | None = None
    api_key: str | None = None
    post: Callable[[str, dict, dict, float], tuple[int, dict]] = _default_post
    timeout: float = 120.0
    max_attempts: int = 3
    backoff: float = 0.5
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        self.base_url = self.base_url or os.environ.get("TA_LIFT_API_BASE", "")
        self.api_key = self.api_key or os.environ.get("TA_LIFT_API_KEY", "")

    def complete(self, prompt: Prompt, params: GenerationParams) -> list[Completion]:
        if not self.base_url:
            raise BackendError(0, "no endpoint configured; set TA_LIFT_API_BASE")
        model = params.model or os.environ.get("TA_LIFT_MODEL", "")
        payload: dict = {
            "model": model,
            "messages": [{"role": role, "content": text} for role, text in prompt.messages],
            "temperature": params.temperature,
            "n": params.n_samples,
            "max_tokens": params.max_tokens,
        }
        if params.seed is not None:
            payload["seed"] = params.seed
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        url = self.base_url.rstrip("/") + "/chat/completions"

        body: dict = {}
        for attempt in range(self.max_attempts):
            status, body = self.post(url, headers, payload, self.timeout)
            if status < 400:
                break
            if status < 500:
                raise BackendError(status, _canonical(body))
            if attempt + 1 == self.max_attempts:
                raise BackendError(status, _canonical(body))
            self.sleep(self.backoff * (2**attempt))

        texts = _reply_texts(status, body, params.n_samples)
        usage = body.get("usage")
        return [Completion(text=text, backend_id=f"http:{model}", cached=False, usage=usage) for text in texts]


class ReplayBackend:
    """Serves recorded completions; any miss is an error, never a guess.

    Fixtures come from two places: an in-memory mapping of prompt
    fingerprint to sample texts, and/or a cache directory produced by
    `CacheBackend` (the same file layout, so caches replay directly).
    """

    def __init__(
        self,
        fixtures: dict[str, list[str]] | None = None,
        directory: str | Path | None = None,
    ):
        self.fixtures = dict(fixtures or {})
        self.directory = Path(directory) if directory is not None else None

    def add(self, fingerprint: str, texts: list[str]) -> None:
        self.fixtures[fingerprint] = list(texts)

    def complete(self, prompt: Prompt, params: GenerationParams) -> list[Completion]:
        out: list[Completion] = []
        for index in range(params.n_samples):
            text: str | None = None
            if self.directory is not None:
                text = load_completion(self.directory, prompt, params, index)
            if text is None:
                stored = self.fixtures.get(prompt.fingerprint)
                if stored is not None and index < len(stored):
                    text = stored[index]
            if text is None:
                raise ReplayMiss(prompt.fingerprint, index)
            out.append(Completion(text=text, backend_id="replay", cached=False))
        return out


class CacheBackend:
    """Content-addressed completion cache in front of another backend."""

    def __init__(self, inner: Backend, directory: str | Path):
        self.inner = inner
        self.directory = Path(directory)

    def complete(self, prompt: Prompt, params: GenerationParams) -> list[Completion]:
        stored: list[str] = []
        for index in range(params.n_samples):
            text = load_completion(self.directory, prompt, params, index)
            if text is None:
                break
            stored.append(text)
        if len(stored) == params.n_samples:
            return [Completion(text=t, backend_id="cache", cached=True) for t in stored]

        fresh = self.inner.complete(prompt, params)
        for index, completion in enumerate(fresh):
            store_completion(self.directory, prompt, params, index, completion.text)
        return fresh
