"""Bundled evaluation fixtures: a small hand-checked caption corpus."""

from __future__ import annotations

import json
from importlib import resources

from ..errors import InputError
from ..metrics import Annotation, CaptionRecord, ObjectLexicon


def _read_text(name: str) -> str:
    return resources.files(__package__).joinpath(name).read_text(encoding="utf-8")


def load_captions_jsonl(text: str, source: str = "<captions>") -> list[CaptionRecord]:
    """Parse caption JSONL: one {"id", "text"} (or {"id", "tokens"}) per line."""
    captions: list[CaptionRecord] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InputError(f"{source}:{lineno}: malformed JSON ({exc.msg})") from exc
        if not isinstance(data, dict) or "id" not in data:
            raise InputError(f"{source}:{lineno}: caption line needs an 'id' field")
        if "tokens" in data:
            tokens = data["tokens"]
            if not isinstance(tokens, list):
                raise InputError(
                    f"{source}:{lineno}: 'tokens' must be a list of strings, "
                    f"got {type(tokens).__name__}"
                )
            captions.append(CaptionRecord(str(data["id"]), tuple(str(t) for t in tokens)))
        elif "text" in data:
            captions.append(CaptionRecord.from_text(str(data["id"]), str(data["text"])))
        else:
            raise InputError(f"{source}:{lineno}: caption line needs 'text' or 'tokens'")
    return captions


def golden_corpus() -> tuple[list[CaptionRecord], list[Annotation], ObjectLexicon]:
    """The bundled 5-caption corpus with annotations and lexicon."""
    captions = load_captions_jsonl(_read_text("golden_captions.jsonl"), "golden_captions")
    annotations = [
        Annotation.from_dict(item)
        for item in json.loads(_read_text("golden_annotations.json"))
    ]
    lexicon = ObjectLexicon.from_dict(json.loads(_read_text("golden_lexicon.json")))
    return captions, annotations, lexicon
