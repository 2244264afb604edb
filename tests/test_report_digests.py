"""Machine reports of the corpus jobs stay byte-identical."""

import json

from report_digests import DIGESTS, digest, jobs


def test_corpus_report_digests():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(" ".join(argv) for argv in jobs())
    changed = []
    for argv in jobs():
        key = " ".join(argv)
        if digest(argv) != (0, recorded[key]):
            changed.append(key)
    assert not changed, f"reports changed: {changed}"
