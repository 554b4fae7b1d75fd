"""Golden frontend oracle: token streams and canonical IR per corpus profile.

For every generated corpus tree this pins two sha256 digests:

* the full ``(kind, text, line, column)`` token stream of every file;
* every module's ``canonical_module_environment`` followed by the
  ``canonical_function_print`` of each of its functions.

The digests were generated with the character-at-a-time lexer and the
original parser and lowering, before the master-regex lexer replaced
them.  A frontend rewrite that keeps them keeps every cache fingerprint
(the ``canonical_*`` prints are the content keys), so ``CACHE_FORMAT``
need not change.  Any intended change to the token stream or the IR
must regenerate them with :func:`frontend_digests` and say why.
"""

import hashlib

import pytest

from repro.corpus import ALL_PROFILES, FIRMLAB, RACELAB, TAINTLAB, generate
from repro.ir.printer import canonical_function_print, canonical_module_environment
from repro.lang import compile_source, tokenize

_PROFILES = ALL_PROFILES + [TAINTLAB, RACELAB, FIRMLAB]

#: profile name -> (token stream digest, canonical IR digest)
GOLDEN = {
    "linux": ("a246b891d58224fb9747d2bb8626b2d10390740b74997c9f0cd76b2423fddc9c",
              "c66e58d7732db36e96d532e421366fe3fa19b3138b4763fc307f1e4e4c65cd0b"),
    "zephyr": ("aefeb05d77289546805c8426fcb337520a8cfffa2e66f9c0ba5b70bbc52fc05e",
               "1b51ce75400f0b25920399451c14db29edab019e0942bc72d5202935d453a28e"),
    "riot": ("836367a164449807699408747bcf3fbb046c899b902e5e652abed4b215ce5c67",
             "e9d70df37aaf391f9b3f158dcdeb3a23bd9f1c977faa1b9d3bd74c21572dbf1e"),
    "tencentos": ("87c80f56e2f9a0b7f3673d21db282b5c95a74371ac0eb61244c22f98daf72f63",
                  "e47316ae06f502f923b29b8ed1b56d993255b08da1c5529cffdc2ccded0a37ae"),
    "taintlab": ("a195b9ebd2e90de40975bf4b9d8965c4162a6c4f6f55703d999f96e94549262b",
                 "bf83775bcacc3ba874bfdd176625d930661e66af72172158d1469dc68cc57b52"),
    "racelab": ("a5212645d103f3ff7dc94afdfacd3a8faecd849e6f6a1a4ae145c42f7cdae730",
                "87bd90b1a56b77b7bb7aee6daeff1095acd6b5a07c99b2cbe2d0a58d3fbf4a47"),
    "firmlab": ("dec37d2a52ed5f80f2a8b71e22b407d910c7f1de17c6d8bcd3cf6c4875c18be5",
                "9d42b1bc6612b51a08e62524383607882f5ff316741c3463a987a530e1ec9e37"),
}


def frontend_digests(profile):
    """``(token digest, canonical IR digest)`` over every generated file
    of ``profile``, compiled or not."""
    tokens = hashlib.sha256()
    canonical = hashlib.sha256()
    for path, source in generate(profile).all_sources():
        tokens.update(f"file {path}\n".encode())
        for tok in tokenize(source, path):
            tokens.update(repr((tok.kind, tok.text, tok.line, tok.column)).encode() + b"\n")
        module = compile_source(source, path)
        canonical.update(canonical_module_environment(module).encode() + b"\n")
        for func in module.functions.values():
            canonical.update(canonical_function_print(func).encode() + b"\n")
    return tokens.hexdigest(), canonical.hexdigest()


@pytest.mark.parametrize("profile", _PROFILES, ids=[p.name for p in _PROFILES])
def test_frontend_output_matches_golden(profile):
    assert frontend_digests(profile) == GOLDEN[profile.name]
