"""Fixture: flow-secret-escape must fire exactly once, on the print."""


def debug_dump(aes_key: bytes) -> None:
    print(aes_key.hex())
