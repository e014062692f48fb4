"""The repo's performance ledger (see README.md in this directory)."""
