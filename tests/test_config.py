import dataclasses
import json

import pytest

from embadapt.config import EncoderEndpointConfig, TrainConfig, from_json
from embadapt.errors import FormatError

URL = "https://encoder.example/embed"


@pytest.mark.parametrize("config", [TrainConfig(), EncoderEndpointConfig(URL)],
                         ids=["train", "endpoint"])
def test_fields_cannot_be_assigned(config):
    for f in dataclasses.fields(config):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, f.name, getattr(config, f.name))


@pytest.mark.parametrize("cls, kwargs, message", [
    (TrainConfig, {"seed": -1}, "seed must be non-negative"),
    (TrainConfig, {"eval_every": 20, "patience": 10}, r"eval_every must be in \[1, patience\]"),
    (TrainConfig, {"use_skip": 1}, "use_skip must be bool"),
    (EncoderEndpointConfig, {"base_url": URL, "max_batch": 0}, "max_batch must be >= 1"),
    (EncoderEndpointConfig, {"base_url": URL, "timeout_seconds": float("inf")},
     "timeout_seconds must be finite float"),
], ids=["negative-seed", "eval-every-past-patience", "int-for-bool", "zero-batch",
        "infinite-timeout"])
def test_bad_value_refused_when_built(cls, kwargs, message):
    with pytest.raises(ValueError, match=message):
        cls(**kwargs)
    with pytest.raises(ValueError, match=message):
        from_json(cls, json.dumps(kwargs))


@pytest.mark.parametrize("base_url", ["nope", "ftp://x/y", "http://"])
def test_base_url_that_cannot_be_requested_refused(base_url):
    with pytest.raises(ValueError, match=f"^base_url must be an http or https URL with a host, "
                                         f"got '{base_url}'$"):
        EncoderEndpointConfig(base_url)
    assert EncoderEndpointConfig(URL).base_url == URL


@pytest.mark.parametrize("base_url, message", [
    ("http://h:abc/", "port must be a number in [0, 65535]"),
    ("http://h:99999/", "port must be a number in [0, 65535]"),
    ("http://h/a b", "must be printable ASCII with no spaces"),
    (" http://h/", "must be printable ASCII with no spaces"),
    ("http://h/\tx", "must be printable ASCII with no spaces"),
    ("http://h/\x00", "must be printable ASCII with no spaces"),
    ("http://h/caf\u00e9", "must be printable ASCII with no spaces"),
])
def test_base_url_that_http_client_cannot_send_refused(base_url, message):
    # urlsplit strips a leading space and drops a tab, so the raw string is checked
    with pytest.raises(ValueError) as exc:
        EncoderEndpointConfig(base_url)
    assert str(exc.value) == f"base_url {message}, got {base_url!r}"
    assert EncoderEndpointConfig("http://h:8080/a%20b").base_url == "http://h:8080/a%20b"


class TestFromJson:
    def test_builds_either_class(self):
        assert from_json(TrainConfig, '{"seed": 3}') == TrainConfig(seed=3)
        assert from_json(EncoderEndpointConfig, f'{{"base_url": "{URL}", "max_batch": 7}}') \
            == EncoderEndpointConfig(URL, max_batch=7)

    def test_overrides_are_checked_with_the_text(self):
        # the text alone, or the override alone, would be refused
        text = '{"eval_every": 20, "patience": 5}'
        assert from_json(TrainConfig, text, patience=30) == TrainConfig(eval_every=20, patience=30)
        with pytest.raises(ValueError, match="eval_every"):
            from_json(TrainConfig, '{"patience": 5}', eval_every=10)
        assert from_json(EncoderEndpointConfig, "{}", base_url=URL) == EncoderEndpointConfig(URL)

    def test_retired_keys_are_dropped(self):
        text = '{"seed": 3, "val_corpus_sample": 5000}'
        assert from_json(TrainConfig, text, retired=("val_corpus_sample",)) == TrainConfig(seed=3)
        with pytest.raises(FormatError, match=r"^unknown keys: \['val_corpus_sample'\]$"):
            from_json(TrainConfig, text)

    @pytest.mark.parametrize("cls, text, message", [
        (TrainConfig, '{"seed": 1', "not valid JSON: "),
        (TrainConfig, '"seed"', "not a JSON object, got str"),
        (EncoderEndpointConfig, "null", "not a JSON object, got NoneType"),
        (TrainConfig, '{"seed": 1, "bogus": 2, "also": 3}', r"unknown keys: \['also', 'bogus'\]"),
        (EncoderEndpointConfig, '{"max_batch": 7}', r"missing keys: \['base_url'\]"),
        (TrainConfig, '{"seed": 1, "seed": 0}', r"repeated keys: \['seed'\]$"),
        (EncoderEndpointConfig,
         '{"max_batch": 1, "base_url": "a", "max_batch": 2, "base_url": "b"}',
         r"repeated keys: \['base_url', 'max_batch'\]$"),
    ], ids=["not-json", "string", "null", "unknown-keys", "missing-key", "repeated-key",
            "repeated-keys"])
    def test_fault_of_the_text_is_a_format_error(self, cls, text, message):
        with pytest.raises(FormatError, match=f"^{message}"):
            from_json(cls, text)
