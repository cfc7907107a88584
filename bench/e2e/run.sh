#!/usr/bin/env bash
# The one command of the end-to-end benchmark; see run.py and README.md.
exec python3 "$(dirname "${BASH_SOURCE[0]}")/run.py" "$@"
