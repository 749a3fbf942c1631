"""Byte-identity of CLI reports on a fixed corpus.

Each entry runs one ``window`` or ``witness`` command and compares the
sha256 digests of its stdout and of its ``--out`` file (if any) with digests
recorded from the reference implementation (trial division to 10^6, then
Pollard rho).  The corpus spans degrees 1-4, both prime filters, the
admissible residue filter, witness cases 1-3, and terms divisible by prime
squares, cubes and fourth powers just above 2^10 and 2^16.  Commands run in
a scratch directory so the ``out`` path echoed in JSON is fixed.
"""

import contextlib
import hashlib
import io

import pytest

from prodsets import cli

CORPUS = [
    ("deg1-above", ["window", "--poly", "7,6", "--r", "1000000", "--R", "40",
                    "--filter", "above"]),
    ("deg1-mid-out", ["window", "--poly", "7,6", "--r", "1000000", "--R", "40",
                      "--filter", "mid", "--out", "w.csv"]),
    ("deg2-above-out", ["window", "--poly", "1,0,1", "--r", "1000000", "--R", "40",
                        "--filter", "above", "--out", "w.csv"]),
    ("deg2-mid", ["window", "--poly", "1,0,1", "--r", "1000000", "--R", "40",
                  "--filter", "mid"]),
    ("deg2-residue-above-out", ["window", "--poly", "2,1,1", "--r", "100000",
                                "--R", "200", "--filter", "above",
                                "--residue", "auto", "--out", "w.csv"]),
    ("deg2-residue-mid", ["window", "--poly", "2,1,1", "--r", "100000", "--R", "200",
                          "--filter", "mid", "--residue", "auto"]),
    ("deg3-above", ["window", "--poly", "2,0,0,1", "--r", "10000", "--R", "30",
                    "--filter", "above"]),
    ("deg3-residue-mid-out", ["window", "--poly", "2,0,0,1", "--r", "10000",
                              "--R", "240", "--filter", "mid", "--residue", "auto",
                              "--out", "w.csv"]),
    ("deg4-mid-out", ["window", "--poly", "1,1,0,0,1", "--r", "3000", "--R", "30",
                      "--filter", "mid", "--out", "w.csv"]),
    ("deg4-above", ["window", "--poly", "1,1,0,0,1", "--r", "3000", "--R", "30",
                    "--filter", "above"]),
    ("squares-2^10", ["window", "--poly", "0,0,1", "--r", "1024", "--R", "40",
                      "--filter", "above"]),
    ("square-times-next-2^10", ["window", "--poly", "0,0,1,1", "--r", "1024",
                                "--R", "30", "--filter", "mid", "--out", "w.csv"]),
    ("cubes-2^10", ["window", "--poly", "0,0,0,1", "--r", "1024", "--R", "12",
                    "--filter", "above"]),
    ("fourth-powers-2^10", ["window", "--poly", "0,0,0,0,1", "--r", "1024",
                            "--R", "12", "--filter", "above"]),
    ("squares-2^16", ["window", "--poly", "0,0,1", "--r", "65536", "--R", "12",
                      "--filter", "above"]),
    ("squares-10^6", ["window", "--poly", "0,0,1", "--r", "1000000", "--R", "8",
                      "--filter", "above"]),
    ("squares-2^31", ["window", "--poly", "0,0,1", "--r", "2147483648", "--R", "4",
                      "--filter", "above"]),
    ("deg4-66bit-out", ["window", "--poly", "1,1,0,0,1", "--r", "100000", "--R", "6",
                        "--filter", "above", "--out", "w.csv"]),
    ("witness-case1-default-gamma", ["witness", "--poly-factors", "1,0,1",
                                     "--r", "1000", "--R", "50"]),
    ("witness-case1-out", ["witness", "--poly-factors", "2,1,1;1,1", "--r", "5000",
                           "--R", "40", "--out", "w.json"]),
    ("witness-case2", ["witness", "--poly-factors", "1,1;3,1", "--r", "100000",
                       "--R", "40", "--gamma", "2"]),
    ("witness-case3", ["witness", "--poly-factors", "1,1;3,1", "--r", "1000",
                       "--R", "40", "--gamma", "2.5"]),
    ("witness-case3-default-gamma", ["witness", "--poly-factors", "1,1;3,1",
                                     "--r", "1000", "--R", "40"]),
    ("witness-squares-2^10", ["witness", "--poly-factors", "0,1;0,1", "--r", "1024",
                              "--R", "30", "--gamma", "1"]),
]

# sha256 of (stdout, --out file) per corpus entry, from the reference run
REFERENCE = {
    "deg1-above": ("9d6aefaa7a898db186e8f2c6266c9d01f8d25bbe3bf24c29430c51a3eb02d67b",
        None),
    "deg1-mid-out": ("118d59f0b7732c141f38d7d22fde200de75383596c4355d856632af08bae64c2",
        "d8e5e388026a6dfe32810323b1da7b2bc287f5e8fa3485683480fe1b3ffe608d"),
    "deg2-above-out": ("39f5d86f49005e50b17b3f0e23b824f3cb6898f7ae0fceb0a7d88d4d32cd104d",
        "c0c209c05b7ce5e3ab15ba7a6b0d98d3bc2de7483112143adfa5de42e5cf5edd"),
    "deg2-mid": ("73555a9d63113b9a8a6ae54691c24af697919acbb76df1a878384ff73ff5e8fc",
        None),
    "deg2-residue-above-out": ("19bbd28df8ad59e0b51932836d0ed4b905adb49bcbc9e0382052bd9c855cb36d",
        "3bf39d2f5cabde672b7afd97797a20658d8ef32f44a4ca648c2f39365e52e2bb"),
    "deg2-residue-mid": ("c8941c2d843dd1f446c340f2dbedca5f17404697960ccce2dbba07339c35aaf2",
        None),
    "deg3-above": ("95b91a17db2d8b6e7bef16ccc100271372f5f7aa8428ab20f8bb1aa32ea47866",
        None),
    "deg3-residue-mid-out": ("5e826f9f1fffaa659125427717bd56f3faeb11395f6543654337747355df47e1",
        "dd03d5baff4732529fce4ebea6c270e5f46fdd89b214a1b017b53f7aa40a25dc"),
    "deg4-mid-out": ("b1e048ecfd6410ae7127e78dfeb789b952a383b02892b0ddc379b47f8a9d09fd",
        "2519be42e751049d940059162712e1cf9e55252e2f57766057b7ec2342013733"),
    "deg4-above": ("0e3eda5faeb14de8b0442aae5224f058b8636803ed3682a53a3f1024ed3153fa",
        None),
    "squares-2^10": ("eed3c0d5ee738d707c5a3c94263a35be9adff1033e56990e1da1f009b4b19e9d",
        None),
    "square-times-next-2^10": ("15a2bac6a4221c2bbdd31bf7518e5339727286bf1e117041c006a3100af8a2da",
        "a94dd4d33286a8ab519c82cb28f9c29325bbc373c5983c96378f94d5afc70c5c"),
    "cubes-2^10": ("6bd456ef0e5e91828fcd7026b3059cd9f501bc8cd05cc98a22b76bc7a5e3b61b",
        None),
    "fourth-powers-2^10": ("ecf403114951c931f6b4ad0e275ca07e97735674fb06da6aa2b00dfedd96bc70",
        None),
    "squares-2^16": ("9c3576d396a975dba33cd4280e31e0f0c2fcfc6fe0bfc97e452aa76b22671add",
        None),
    "squares-10^6": ("440733d5adf986d5eb3aa4df756fb9194b42e48eb677ffed9312587efa85ca00",
        None),
    "squares-2^31": ("abc50527f89938722aec60913a623133c7d13bf383456b8d0868ee7f791a2935",
        None),
    "deg4-66bit-out": ("f7d10f3cebd5dabb868e6e9684abf892d6e657ffca11697facf4bcaf771973b4",
        "12076554cc5809ce3de8a3e326cd6032c518b73e612960bc3e1d080077310a73"),
    "witness-case1-default-gamma": ("306f98e65c4dee5593c7c7af5a8af2d87d2839fb2d34f5cf066e8f1a3005d300",
        None),
    "witness-case1-out": ("499f4ebdccfc9c1c4429b4c157ca23fe12413f9bc18b71f71ab9ca8ad38b9bae",
        "499f4ebdccfc9c1c4429b4c157ca23fe12413f9bc18b71f71ab9ca8ad38b9bae"),
    "witness-case2": ("84493dd1f5524df01ff55840295e6290c39e756289133d4852dc76997c5501ec",
        None),
    "witness-case3": ("7d3b98da1e6b6140e6dc7531c23040b850803b2ec567017094d8e473ac35afcc",
        None),
    "witness-case3-default-gamma": ("7968beb9c47b88023780a22a62131a5e7c8acf1ec4389d991b9cca9e05405262",
        None),
    "witness-squares-2^10": ("e006155f70f2e2acbabea297d7991817aab90b8fd16d50e8e1ec38468a81eab1",
        None),
}


def run_report(argv):
    """stdout bytes and --out file bytes (or None) of one CLI call, run in the
    current directory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, argv
    written = None
    if "--out" in argv:
        with open(argv[argv.index("--out") + 1], "rb") as handle:
            written = handle.read()
    return out.getvalue().encode(), written


def digest(data):
    return None if data is None else hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name,argv", CORPUS, ids=[name for name, _ in CORPUS])
def test_report_bytes_match_reference(name, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    stdout, written = run_report(argv)
    assert (digest(stdout), digest(written)) == REFERENCE[name]
