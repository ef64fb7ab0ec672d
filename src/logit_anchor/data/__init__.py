"""Caption corpora: the caption JSONL reader, the reader of a corpus's three
files, and the bundled 5-caption corpus, read by it."""

from __future__ import annotations

from pathlib import Path

from ..config import (
    jsonl_line_numbers, parse_json, read_array, read_id, read_input_text, read_jsonl,
    read_string, read_string_list,
)
from ..errors import ConfigError, InputError
from ..metrics import Annotation, CaptionRecord, ObjectLexicon


def load_captions_jsonl(text: str, source: str = "<captions>") -> list[CaptionRecord]:
    """Parse caption JSONL: one {"id", "text"} (or {"id", "tokens"}) per line. The
    id is a string or an integer (read as its decimal string); the text and every
    token are strings. The tokens are read as their text, joined by spaces, so both
    forms are split and stripped of edge punctuation alike."""
    captions: list[CaptionRecord] = []
    for lineno, data in zip(jsonl_line_numbers(text), read_jsonl(text, source)):
        if not isinstance(data, dict) or "id" not in data:
            raise InputError(f"{source}:{lineno}: caption line needs an 'id' field")
        try:
            image_id = read_id(data["id"], "'id'")
            if "tokens" in data:
                text = " ".join(read_string_list(data["tokens"], "'tokens'"))
            elif "text" in data:
                text = read_string(data["text"], "'text'")
            else:
                raise ConfigError("caption line needs 'text' or 'tokens'")
        except (ConfigError, InputError) as exc:
            raise InputError(f"{source}:{lineno}: {exc}") from exc
        captions.append(CaptionRecord.from_text(image_id, text))
    return captions


def _annotations(data) -> list[Annotation]:
    return list(read_array(data, "annotations", lambda item, key: Annotation.from_dict(item)))


def load_corpus(captions, annotations, lexicon):
    """The captions, annotations and lexicon in a captions JSONL file, an
    annotations JSON array and an object lexicon JSON file; a bad value is an
    InputError naming its file."""
    corpus = [load_captions_jsonl(read_input_text(captions), str(captions))]
    for path, build in ((annotations, _annotations), (lexicon, ObjectLexicon.from_dict)):
        data = parse_json(read_input_text(path), path)
        try:
            corpus.append(build(data))
        except (ConfigError, InputError) as exc:
            raise InputError(f"{path}: {exc}") from exc
    return tuple(corpus)


def golden_corpus() -> tuple[list[CaptionRecord], list[Annotation], ObjectLexicon]:
    """The bundled 5-caption corpus with annotations and lexicon."""
    return load_corpus(*(Path(__file__).with_name(name) for name in (
        "golden_captions.jsonl", "golden_annotations.json", "golden_lexicon.json")))
