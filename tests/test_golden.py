"""Byte-identity of CLI reports on a fixed corpus.

Each entry runs one CLI command and compares the sha256 digests of its
stdout and of the file it writes (``--out`` or ``--dump``, if any) with
digests recorded from the reference implementation.  The ``window`` and
``witness`` entries were recorded from trial division to 10^6, then Pollard
rho; they span degrees 1-4, both prime filters, the admissible residue
filter, witness cases 1-3, and terms divisible by prime squares, cubes and
fourth powers just above 2^10 and 2^16.  The 150-term window of ``x^4+1``
at ``r = 10^5``, whose 63 cofactors left by the medium stage fill three
16-lane rho walks, was recorded while rho walked one composite at a time.
The 100-term window of ``x^2+1`` at ``r = 2^47 + 12345``, whose 95-bit
terms leave composites with least primes of up to 44 bits, was recorded
while rho walked every lane until it split, with no step budget and no ECM.
The three entries for linear pairs at ``x`` near ``2^33`` (cases 2 and 3)
and for ``(x-5)(x-7)`` on ``r = 0``, whose factor values are negative or
-1, were recorded while each witness term was factored as one product
value.  The linear pair
``(x+3)(x+17)`` at ``r = 10^9``, ``R = 1000``, whose factor values recur 14
terms apart, and ``x^2+1`` on ``1..1100``, whose terms carry primes between
1000 and 1100, were recorded while trial division tested every prime below
2^10 in turn and each factor value was factored at every term.  The ``graph`` and ``lucas-bound``
entries were recorded from the per-kind index paths (the 5m^2 +/- 4 test for
Fibonacci, a growing table for Lucas numbers, a 500-term table per pair);
they span fib, lucasV, pairs of positive and negative discriminant, the
pairs (+-1, 0), fractional sets, both graph modes and cyclic sets with an
edge dump.  The two ``lucasU:1,-1`` graph entries were recorded while
``fib`` still had its own string marker; they equal the ``fib`` entries for
the same set.  The ``selftest`` and ``fib-extremal`` entries were recorded from
the walk over every subset of ``{1..N}``; at universe 6, size 6 the witness
holds 6, which pairs with no element into a Fibonacci value.  The ``cover``
entries were recorded from the greedy pass that lowers the degree bound by
one per repeat; each writes its graph file first.  Commands run in a scratch
directory so the ``out`` path echoed in JSON is fixed.
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
    ("x^4+1-R150", ["window", "--poly", "1,0,0,0,1", "--r", "100000", "--R", "150",
                    "--filter", "above"]),
    ("x^2+1-95bit-R100", ["window", "--poly", "1,0,1", "--r", "140737488367673",
                          "--R", "100", "--filter", "above"]),
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
    ("witness-linear-pair-2^33-case2", ["witness", "--poly-factors", "3,1;17,1",
                                        "--r", "8589934592", "--R", "30", "--gamma", "2"]),
    ("witness-linear-pair-2^33-case3", ["witness", "--poly-factors", "3,1;17,1",
                                        "--r", "8589934592", "--R", "30", "--gamma", "7"]),
    ("witness-negative-linear-factors", ["witness", "--poly-factors=-5,1;-7,1",
                                         "--r", "0", "--R", "4"]),
    ("witness-linear-pair-overlap-R1000", ["witness", "--poly-factors", "3,1;17,1",
                                           "--r", "1000000000", "--R", "1000"]),
    ("deg2-primes-near-2^10-out", ["window", "--poly", "1,0,1", "--r", "0", "--R", "1100",
                                   "--filter", "mid", "--out", "w.csv"]),
    ("lucas-bound-fib", ["lucas-bound", "--set", "1,2,3,4,5,6,8,13,21", "--seq", "fib"]),
    ("lucas-bound-lucasV", ["lucas-bound", "--set", "1,2,3,4,7,9,11,18", "--seq", "lucasV"]),
    ("lucas-bound-disc-pos-high-index", ["lucas-bound", "--set",
                                         "1,3,7,15,31,2147483647,4294967295",
                                         "--seq", "lucasU:3,2"]),
    ("lucas-bound-disc-pos-negative-p", ["lucas-bound", "--set", "1,3,10,33,109",
                                         "--seq", "lucasU:-3,-1"]),
    ("lucas-bound-disc-neg", ["lucas-bound", "--set", "1,3,5,7,13,23", "--seq", "lucasU:1,2"]),
    ("lucas-bound-1-0", ["lucas-bound", "--set", "1,2,3", "--seq", "lucasU:1,0"]),
    ("lucas-bound-fraction", ["lucas-bound", "--set", "2,1/2,3/2,5/2,13/2", "--seq", "fib"]),
    ("graph-fib-one", ["graph", "--set", "1,2,3,4,5,6,7,8,13", "--seq", "fib"]),
    ("graph-fib-two", ["graph", "--set", "1,2,3,4,5,6,7,8,13", "--seq", "fib",
                       "--mode", "two"]),
    ("graph-lucasU-1-minus-1-one", ["graph", "--set", "1,2,3,4,5,6,7,8,13",
                                    "--seq", "lucasU:1,-1"]),
    ("graph-lucasU-1-minus-1-two", ["graph", "--set", "1,2,3,4,5,6,7,8,13",
                                    "--seq", "lucasU:1,-1", "--mode", "two"]),
    ("graph-lucasV-two", ["graph", "--set", "1,3,4,7,11", "--seq", "lucasV", "--mode", "two"]),
    ("graph-disc-pos", ["graph", "--set", "1,3,7,21,31", "--seq", "lucasU:3,2"]),
    ("graph-disc-neg-two", ["graph", "--set", "1,5,7,23", "--seq", "lucasU:1,2",
                            "--mode", "two"]),
    ("graph-1-0", ["graph", "--set", "1,2", "--seq", "lucasU:1,0"]),
    ("graph-minus-1-0", ["graph", "--set", "1,2", "--seq", "lucasU:-1,0", "--mode", "two"]),
    ("graph-fraction-two", ["graph", "--set", "2,1/2,3/2,5/2,13/2", "--seq", "fib",
                            "--mode", "two"]),
    ("graph-cyclic-dump", ["graph", "--set", "1/2,2,4", "--seq", "fib", "--dump", "edges.csv"]),
    ("graph-cyclic-edges-after-cycle-dump", ["graph", "--set", "1/2,1,2,3,4,5,13,21", "--seq", "fib",
                                 "--dump", "edges.csv"]),
    ("selftest", ["selftest"]),
] + [
    (f"fib-extremal-30-{size}-out", ["fib-extremal", "--universe", "30",
                                     "--size", str(size), "--out", "f.json"])
    for size in range(1, 6)
] + [
    ("fib-extremal-40-6", ["fib-extremal", "--universe", "40", "--size", "6"]),
    ("fib-extremal-7-6", ["fib-extremal", "--universe", "7", "--size", "6"]),
    ("fib-extremal-12-5", ["fib-extremal", "--universe", "12", "--size", "5"]),
    ("fib-extremal-6-6", ["fib-extremal", "--universe", "6", "--size", "6"]),
]

# (name, graph file) for ``cover --graph graph.txt``
COVER_CORPUS = [
    ("cover-path", "b1 a1\nb2 a1 a2\nb3 a2\n"),
    ("cover-comments-repeated-neighbours",
     "# b a1 a2 ...\nb1 a1 a1 a2\n\n  # indented\nb2 a2 a3\n\t\nb3 a3 a1\nb4 a4\n"),
    ("cover-empty", ""),
    ("cover-descent-40", "".join(f"u{i} a1 a2\n" for i in range(40)) + "p1 a1\np2 a2\n"),
    # each composite n in 4..120 next to its divisors in (1, n)
    ("cover-proper-divisors-120", "".join(
        f"{n} " + " ".join(str(d) for d in range(2, n) if n % d == 0) + "\n"
        for n in range(4, 121) if any(n % d == 0 for d in range(2, n)))),
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
    "x^4+1-R150": ("690c3eb95cfa6b2285674550f96bae40701e95061be13ca540ca535659576bda",
        None),
    "x^2+1-95bit-R100": ("cb3f0d20e9224b03c17422c6369dde0fb0caf34ae12b8a45de5c1e3e99f67b07",
        None),
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
    "witness-linear-pair-2^33-case2": ("0bca248d7da23117f168331f39d027770b3a82d182824c38786c29e6258b3003",
        None),
    "witness-linear-pair-2^33-case3": ("97e470c52358b7b08ac2167e960f8e70baddfc5271e1f3a1fb01a4b9f24ff783",
        None),
    "witness-negative-linear-factors": ("719f85723a9216f941d65d10493908b78af9c019d1344b8cedd482b473aa85a6",
        None),
    "witness-linear-pair-overlap-R1000": ("fdcfdc1a0bb00b27b4a7d7f41c1b6a2b8ba1c63fc2528dfcca30eb114ff04157",
        None),
    "deg2-primes-near-2^10-out": ("78578721a9ff8e6862a74668b0f065c717612e51cba774140e610239ddc8e422",
        "804e0a9ee8a94f875158f7ea5c725dde9e31cff7cf5417a5f2911700bcd28cbb"),
    "lucas-bound-fib": ("7c7f96d285ce423c297ade919c575c33a184352aa22bcc258f2996796969445c",
        None),
    "lucas-bound-lucasV": ("4f40a1d9bcf411969b9976b26884416703057a1892a95c62a327dc9d39d59af7",
        None),
    "lucas-bound-disc-pos-high-index": ("c46a1406be5e6ef9e2191d50a00054f05dab30a0c15a9d228623113d2d6099d1",
        None),
    "lucas-bound-disc-pos-negative-p": ("ff194b8ef52a1ac8a08eee389ebc847c33a4f33de0d646fd3dbc250c915b70b7",
        None),
    "lucas-bound-disc-neg": ("6d42b9ab362c0a0c93e093e33e610fcaaa29028c3577f234324e19f3c27f71ee",
        None),
    "lucas-bound-1-0": ("ff6ca10a675a2aaa61dd362f3668ffe59baec8e4b06aa0e1a3ec4109de71efcc",
        None),
    "lucas-bound-fraction": ("d55bbfea16b167b78a12db08a1a3127ef78178b3b7fcbbf3ecfa708b32dfac86",
        None),
    "graph-fib-one": ("e9eb04e5a047f808137fd30b36cff3f645e429ef77effcfa40db4009beb8c226",
        None),
    "graph-fib-two": ("0d8ebe1d19989f755f56fb68e1846830c02a10201e16d0271ca20f185ecfe012",
        None),
    "graph-lucasU-1-minus-1-one": ("e9eb04e5a047f808137fd30b36cff3f645e429ef77effcfa40db4009beb8c226",
        None),
    "graph-lucasU-1-minus-1-two": ("0d8ebe1d19989f755f56fb68e1846830c02a10201e16d0271ca20f185ecfe012",
        None),
    "graph-lucasV-two": ("b62d51edff745460a88f10770d53730cae32f93542e565d589cf680fda71abc4",
        None),
    "graph-disc-pos": ("628424337a9498a3471aa06edfc3b26fd0de84daf1639b1c68633141f8ad29e9",
        None),
    "graph-disc-neg-two": ("a4af99ed28c4b52bf5ed6f70c06d2ebd8c22970396786a4b52c0b557e747970a",
        None),
    "graph-1-0": ("1ee4e34213fc613f712b11d2afa316cb8493c1ae2e9ee8a408d54ca65c7d3ca5",
        None),
    "graph-minus-1-0": ("52188ab75d64922028d3f038723d423505bd68a4d449f0d0da726eed11c4f964",
        None),
    "graph-fraction-two": ("c85cb00ea494fd79b753ca40e42bfb5af48f7fea88d3e76acdecf1b4b6dcf9c2",
        None),
    "graph-cyclic-dump": ("8f6270118b0e63e54cc65ba7f1719284d06804f2c15aed1feff6b731697c3db2",
        "313cdb6babea0e4b7a3ff5bf415b5ecc08d63dc24602eca2ebe0f8ab5eb65052"),
    "graph-cyclic-edges-after-cycle-dump": ("b9342799b6f7ab0856dbea71766dd1658615390392f80af7494637a36c522495",
        "b2e69da295b466dc7b60db0767427bd9eb193b63390ec676e04373b5d2bfe8b5"),
    "selftest": ("93a2e58ead4df04a66253161945f05d13636a3f64c740cba65dc9ed1c8cee28d",
        None),
    "fib-extremal-30-1-out": ("26adbb025fce9011d3fcb6019d19590f7664ef534fa2ff060f3b5f20ebe74516",
        "26adbb025fce9011d3fcb6019d19590f7664ef534fa2ff060f3b5f20ebe74516"),
    "fib-extremal-30-2-out": ("c370a67efe68ee62da5cefde0d218125057fa657c8781f2a2f2c977e509471d3",
        "c370a67efe68ee62da5cefde0d218125057fa657c8781f2a2f2c977e509471d3"),
    "fib-extremal-30-3-out": ("a835b2ac485232d19637ae25f242ff0dbaff9f7b4059e723961f86162f23c9ac",
        "a835b2ac485232d19637ae25f242ff0dbaff9f7b4059e723961f86162f23c9ac"),
    "fib-extremal-30-4-out": ("7f680d5d669f104ab81fff20e3a66bab03cc2fa386997d1d4151a6fc32adf5a1",
        "7f680d5d669f104ab81fff20e3a66bab03cc2fa386997d1d4151a6fc32adf5a1"),
    "fib-extremal-30-5-out": ("b5ba62402a5934b94c49e0586d7c973c3eaf63d9c501a090925f5d71ca841199",
        "b5ba62402a5934b94c49e0586d7c973c3eaf63d9c501a090925f5d71ca841199"),
    "fib-extremal-40-6": ("ddbd8d57e2cc9a59fbe632026c7c95fa5580298d9ef8319509b389abb1c0a2d7",
        None),
    "fib-extremal-7-6": ("34a0232f40f02105643e60f9c1e16e494117cf4562912b0bbf939b3dffa7f9d5",
        None),
    "fib-extremal-12-5": ("bfc6d57fc6a71ffe6a69e987a905ae530baa09ff57dc75212a37689d2fd8cd5d",
        None),
    "fib-extremal-6-6": ("ba1b0da2403d795d3901d060dd2e6e59e6d088afb9c651e224de184299439076",
        None),
    "cover-path": ("1a6ef95aeda26984be292c742725c194de3bdfc33ed4f6eeb20ed39d312ba63f",
        None),
    "cover-comments-repeated-neighbours": ("72b76d83313121f32e90fb3bb4dbaa8dd5d846f7f464268e224263c568b064f6",
        None),
    "cover-empty": ("ede104fca4b1b9a5bec435cd957a0462a505eb59ff97a5066d601b252d1cdc54",
        None),
    "cover-descent-40": ("592a4fec77423c95d9a8a8e0ae17900a9327af20fb81bd47f9431e9ff77e323b",
        None),
    "cover-proper-divisors-120": ("dd592da5def451e90213a671b1f59ab8d1a88163a621436fead5755f1b5039d5",
        None),
}


def run_report(argv):
    """stdout bytes and --out or --dump file bytes (or None) of one CLI call,
    run in the current directory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, argv
    written = None
    for flag in ("--out", "--dump"):
        if flag in argv:
            with open(argv[argv.index(flag) + 1], "rb") as handle:
                written = handle.read()
    return out.getvalue().encode(), written


def digest(data):
    return None if data is None else hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name,argv", CORPUS, ids=[name for name, _ in CORPUS])
def test_report_bytes_match_reference(name, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    stdout, written = run_report(argv)
    assert (digest(stdout), digest(written)) == REFERENCE[name]


@pytest.mark.parametrize("name,graph", COVER_CORPUS, ids=[name for name, _ in COVER_CORPUS])
def test_cover_report_bytes_match_reference(name, graph, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.txt").write_text(graph)
    stdout, written = run_report(["cover", "--graph", "graph.txt"])
    assert (digest(stdout), digest(written)) == REFERENCE[name]


@pytest.mark.parametrize("mode", ["one", "two"])
def test_fibonacci_pair_reports_match_fib(mode):
    assert REFERENCE[f"graph-lucasU-1-minus-1-{mode}"] == REFERENCE[f"graph-fib-{mode}"]
