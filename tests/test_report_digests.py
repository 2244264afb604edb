"""Machine reports of the corpus jobs stay byte-identical."""

import hashlib
import json

from report_digests import DIGESTS, jobs, report

DISK16_MAXIMAL = "lc perfbench/problems/disk16.toric --maximal"


def test_corpus_report_digests():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(" ".join(argv) for argv in jobs())
    changed = []
    texts = {}
    for argv in jobs():
        key = " ".join(argv)
        code, texts[key] = report(argv)
        sha = hashlib.sha256(texts[key].encode("utf-8")).hexdigest()
        if (code, sha) != (0, recorded[key]):
            changed.append(key)
    assert not changed, f"reports changed: {changed}"
    # for the maximal ideal the Cech multiplicity of a class is the face
    # complex rank of its sector; on disk16 each piece is one class
    disk16 = json.loads(texts[DISK16_MAXIMAL])
    cech = {
        (module["cohomological_degree"], tuple(factor["sector"]), factor["multiplicity"])
        for module in disk16["local_cohomology"]["modules"]
        for factor in module["series"]
    }
    ishida = {
        (piece["cohomological_degree"], tuple(piece["sector"]), piece["rank"])
        for piece in disk16["sector_cohomology"]["pieces"]
    }
    assert cech == ishida
    assert disk16["local_cohomology"]["total_length"] == disk16["sector_cohomology"]["length"]
