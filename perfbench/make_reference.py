#!/usr/bin/env python3
"""Write reference.json: the canary results that every run is checked against.

Run once from the root of a checkout of the reference commit:

    python3 perfbench/make_reference.py

Later commits are compared with these values, within the tolerances stated
in run.py; regenerating the file on another commit would hide changes.
"""

import json

from run import REFERENCE, canary, git_sha, load_crener

if __name__ == "__main__":
    crener, np = load_crener()
    result = canary(crener, np)
    result["source_commit"] = git_sha()
    REFERENCE.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
