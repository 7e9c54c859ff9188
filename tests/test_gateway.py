"""Backend behavior: keys, cache hits, replay misses, retry policy, the HTTP transport."""

import json

import pytest

from ta_lift.gateway import (
    BackendError,
    BackendTimeout,
    CacheBackend,
    Completion,
    GenerationParams,
    HttpBackend,
    ReplayBackend,
    ReplayMiss,
    _default_post,
    cache_key,
    load_completion,
    params_hash,
    store_completion,
)
from ta_lift.fixtures import KERNELS
from ta_lift.prompts import PromptSpec, build_translation_prompt


def sample_prompt():
    return build_translation_prompt(PromptSpec(kernel=KERNELS["gv2"], shots=1))


class ScriptedBackend:
    """Returns canned texts and counts how often it was asked."""

    def __init__(self, texts):
        self.texts = texts
        self.calls = 0

    def complete(self, prompt, params):
        self.calls += 1
        return [
            Completion(text=self.texts[i % len(self.texts)], backend_id="scripted")
            for i in range(params.n_samples)
        ]


def test_cache_key_is_stable_across_reconstruction():
    p1 = sample_prompt()
    p2 = build_translation_prompt(PromptSpec(kernel=KERNELS["gv2"], shots=1))
    params = GenerationParams(temperature=0.8, n_samples=4)
    again = GenerationParams(temperature=0.8, n_samples=4)
    assert cache_key(p1, params, 0) == cache_key(p2, again, 0)
    assert cache_key(p1, params, 0) != cache_key(p1, params, 1)


def test_cache_key_depends_on_params():
    prompt = sample_prompt()
    hot = GenerationParams(temperature=0.8)
    cold = GenerationParams(temperature=0.0)
    assert params_hash(hot) != params_hash(cold)
    assert cache_key(prompt, hot, 0) != cache_key(prompt, cold, 0)


def test_generation_params_validation():
    with pytest.raises(ValueError):
        GenerationParams(n_samples=0)
    with pytest.raises(ValueError):
        GenerationParams(temperature=-0.1)
    with pytest.raises(ValueError):
        GenerationParams(max_tokens=0)


def test_cache_second_call_hits_without_network(tmp_path):
    prompt = sample_prompt()
    params = GenerationParams(n_samples=3)
    inner = ScriptedBackend(["alpha", "beta", "gamma"])
    backend = CacheBackend(inner, tmp_path / "cache")

    first = backend.complete(prompt, params)
    assert inner.calls == 1
    assert [c.cached for c in first] == [False, False, False]

    second = backend.complete(prompt, params)
    assert inner.calls == 1
    assert [c.cached for c in second] == [True, True, True]
    assert [c.text for c in second] == [c.text for c in first]


def test_cache_files_are_content_addressed_json(tmp_path):
    prompt = sample_prompt()
    params = GenerationParams(n_samples=1)
    backend = CacheBackend(ScriptedBackend(["body"]), tmp_path)
    backend.complete(prompt, params)

    key = cache_key(prompt, params, 0)
    path = tmp_path / key[:2] / f"{key}.json"
    assert path.exists()
    record = json.loads(path.read_text())
    assert record["fingerprint"] == prompt.fingerprint
    assert record["completions"] == ["body"]
    assert not list(tmp_path.rglob("*.tmp"))


def test_replay_serves_fixture_mapping():
    prompt = sample_prompt()
    backend = ReplayBackend({prompt.fingerprint: ["X"]})
    out = backend.complete(prompt, GenerationParams(n_samples=1))
    assert [c.text for c in out] == ["X"]
    assert out[0].backend_id == "replay"


def test_replay_miss_carries_fingerprint():
    prompt = sample_prompt()
    backend = ReplayBackend({})
    with pytest.raises(ReplayMiss) as excinfo:
        backend.complete(prompt, GenerationParams(n_samples=1))
    assert excinfo.value.fingerprint == prompt.fingerprint


def test_replay_miss_on_short_fixture_list():
    prompt = sample_prompt()
    backend = ReplayBackend({prompt.fingerprint: ["only one"]})
    with pytest.raises(ReplayMiss) as excinfo:
        backend.complete(prompt, GenerationParams(n_samples=2))
    assert excinfo.value.index == 1


def test_replay_reads_cache_directory(tmp_path):
    prompt = sample_prompt()
    params = GenerationParams(n_samples=2)
    CacheBackend(ScriptedBackend(["one", "two"]), tmp_path).complete(prompt, params)

    replay = ReplayBackend(directory=tmp_path)
    out = replay.complete(prompt, params)
    assert [c.text for c in out] == ["one", "two"]


def test_store_and_load_roundtrip(tmp_path):
    prompt = sample_prompt()
    params = GenerationParams(n_samples=1)
    store_completion(tmp_path, prompt, params, 0, "stored text")
    assert load_completion(tmp_path, prompt, params, 0) == "stored text"
    assert load_completion(tmp_path, prompt, params, 1) is None


def make_http(post, **kwargs):
    kwargs.setdefault("sleep", lambda _: None)
    return HttpBackend(base_url="http://api.test/v1", api_key="k", post=post, **kwargs)


def openai_body(texts):
    return {
        "choices": [{"message": {"content": t}} for t in texts],
        "usage": {"prompt_tokens": 10, "completion_tokens": 5},
    }


def test_http_backend_parses_choices():
    seen = {}

    def post(url, headers, payload, timeout):
        seen.update(url=url, payload=payload, auth=headers.get("Authorization"))
        return 200, openai_body(["a", "b"])

    backend = make_http(post)
    out = backend.complete(sample_prompt(), GenerationParams(model="m1", n_samples=2))
    assert [c.text for c in out] == ["a", "b"]
    assert out[0].backend_id == "http:m1"
    assert out[0].usage == {"prompt_tokens": 10, "completion_tokens": 5}
    assert seen["url"] == "http://api.test/v1/chat/completions"
    assert seen["auth"] == "Bearer k"
    assert seen["payload"]["n"] == 2
    assert seen["payload"]["messages"][0]["role"] == "system"


def test_http_backend_retries_server_errors():
    statuses = iter([500, 502, 200])
    calls = {"n": 0}

    def post(url, headers, payload, timeout):
        calls["n"] += 1
        status = next(statuses)
        return status, openai_body(["ok"]) if status == 200 else {"error": "boom"}

    backend = make_http(post)
    out = backend.complete(sample_prompt(), GenerationParams(n_samples=1))
    assert calls["n"] == 3
    assert out[0].text == "ok"


def test_http_backend_gives_up_after_three_attempts():
    calls = {"n": 0}

    def post(url, headers, payload, timeout):
        calls["n"] += 1
        return 503, {"error": "down"}

    backend = make_http(post)
    with pytest.raises(BackendError) as excinfo:
        backend.complete(sample_prompt(), GenerationParams(n_samples=1))
    assert calls["n"] == 3
    assert excinfo.value.status == 503


def test_http_backend_does_not_retry_client_errors():
    calls = {"n": 0}

    def post(url, headers, payload, timeout):
        calls["n"] += 1
        return 404, {"error": "no such model"}

    backend = make_http(post)
    with pytest.raises(BackendError) as excinfo:
        backend.complete(sample_prompt(), GenerationParams(n_samples=1))
    assert calls["n"] == 1
    assert excinfo.value.status == 404
    assert "no such model" in excinfo.value.body


def test_http_backend_rejects_short_choice_list():
    def post(url, headers, payload, timeout):
        return 200, openai_body(["only"])

    backend = make_http(post)
    with pytest.raises(BackendError):
        backend.complete(sample_prompt(), GenerationParams(n_samples=2))


@pytest.mark.parametrize("body", [[], {"choices": ["x"]}, {"choices": [{"message": None}]},
                                  {"choices": [{"message": {"content": 5}}]}, {"raw": "<html>"}],
                         ids=["list", "string-choice", "null-message", "numeric-content", "not-json"])
def test_http_backend_rejects_malformed_reply_bodies(body):
    backend = make_http(lambda url, headers, payload, timeout: (200, body))
    with pytest.raises(BackendError) as excinfo:
        backend.complete(sample_prompt(), GenerationParams(n_samples=1))
    assert excinfo.value.status == 200
    assert "choice" in excinfo.value.body


# -- the standard-library transport, against a loopback server --------------------


def test_default_post_sends_json_and_reads_a_json_reply(loopback_server):
    loopback_server.replies["/ok"] = (200, json.dumps(openai_body(["hi"])).encode(), 0)
    url = f"http://127.0.0.1:{loopback_server.server_port}/ok"
    status, body = _default_post(url, {"Content-Type": "application/json", "Authorization": "Bearer k"},
                                 {"n": 1}, 5.0)
    assert (status, body) == (200, openai_body(["hi"]))
    [(path, headers, payload)] = loopback_server.posts
    assert (path, payload, headers["Authorization"]) == ("/ok", {"n": 1}, "Bearer k")


def test_default_post_returns_a_server_error_body_and_the_backend_retries(loopback_server):
    loopback_server.replies["/v1/chat/completions"] = (500, b'{"error": "boom"}', 0)
    base = f"http://127.0.0.1:{loopback_server.server_port}/v1"
    assert _default_post(base + "/chat/completions", {}, {}, 5.0) == (500, {"error": "boom"})
    del loopback_server.posts[:]
    backend = HttpBackend(base_url=base, sleep=lambda _: None)
    with pytest.raises(BackendError) as excinfo:
        backend.complete(sample_prompt(), GenerationParams(n_samples=1))
    assert (excinfo.value.status, excinfo.value.body) == (500, '{"error":"boom"}')
    assert len(loopback_server.posts) == backend.max_attempts


def test_default_post_client_error_becomes_a_backend_error(loopback_server):
    loopback_server.replies["/v1/chat/completions"] = (400, b'{"error": "bad model"}', 0)
    backend = HttpBackend(base_url=f"http://127.0.0.1:{loopback_server.server_port}/v1", sleep=lambda _: None)
    with pytest.raises(BackendError) as excinfo:
        backend.complete(sample_prompt(), GenerationParams(n_samples=1))
    assert excinfo.value.status == 400
    assert "bad model" in excinfo.value.body
    assert len(loopback_server.posts) == 1


def test_default_post_keeps_a_body_that_is_not_json(loopback_server):
    loopback_server.replies["/text"] = (200, b"<html>busy</html>", 0)
    url = f"http://127.0.0.1:{loopback_server.server_port}/text"
    assert _default_post(url, {}, {}, 5.0) == (200, {"raw": "<html>busy</html>"})


def test_default_post_times_out(loopback_server):
    loopback_server.replies["/slow"] = (200, b"{}", 0.6)
    with pytest.raises(BackendTimeout):
        _default_post(f"http://127.0.0.1:{loopback_server.server_port}/slow", {}, {}, 0.2)
