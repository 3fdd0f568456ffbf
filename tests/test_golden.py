"""Golden bytes: the sha256 of every output file and of stdout for a fixed set
of CLI runs, recorded before a refactor that must not change them.

A change meant to alter output bytes updates ``GOLDEN`` (print the new table
with ``PYTHONPATH=src python tests/test_golden.py``) and says so in
CHANGES.md. ``decompose`` and ``spectrum`` are left out: their full-precision
floats carry ulp-level differences between BLAS builds.
"""

import contextlib
import hashlib
import io
import os
import tempfile

import pytest

from rpsdm.cli import main

RUNS = {
    "ber-n128": ["ber", "--n", "128", "--l", "8", "--m", "16", "--snr", "0:30:10",
                 "--trials", "20", "--seed", "1", "--scheme", "both",
                 "--detector", "both", "--output", "ber.csv"],
    "ber-n96-json": ["ber", "--n", "96", "--l", "8", "--m", "16", "--snr", "0:30:10",
                     "--trials", "10", "--seed", "3", "--format", "json",
                     "--output", "ber.json"],
    "ber-n12-qam64": ["ber", "--n", "12", "--l", "4", "--m", "64", "--snr", "0:30:5",
                      "--trials", "40", "--seed", "5", "--output", "ber.csv"],
    "ber-n1-l1": ["ber", "--n", "1", "--l", "1", "--m", "16", "--snr", "0:30:10",
                  "--trials", "50", "--seed", "7", "--scheme", "both",
                  "--detector", "both", "--output", "ber.csv"],
    "ber-n512": ["ber", "--n", "512", "--l", "16", "--m", "16", "--snr", "0:30:10",
                 "--trials", "4", "--seed", "11", "--scheme", "both",
                 "--detector", "both", "--output", "ber.csv"],
    # 400 (SNR point, trial) rows per curve at a non-power-of-two N: more
    # rows than one batch of the BER engine, so chunk boundaries are pinned
    "ber-n24-chunks": ["ber", "--n", "24", "--l", "5", "--m", "4", "--snr", "0:30:10",
                       "--trials", "100", "--seed", "13", "--scheme", "both",
                       "--detector", "both", "--output", "ber.csv"],
    # receiver subsets: the engine must emit curves for any of them; N=96
    # MMSE solves its blocks on the frame spectrum
    "ber-n96-rpsdm-mmse": ["ber", "--n", "96", "--l", "8", "--m", "16", "--snr", "0:30:10",
                           "--trials", "10", "--seed", "17", "--scheme", "rpsdm",
                           "--detector", "mmse", "--output", "ber.csv"],
    "ber-ofdm-zf": ["ber", "--n", "32", "--l", "6", "--m", "16", "--snr", "0:30:10",
                    "--trials", "30", "--seed", "19", "--scheme", "ofdm",
                    "--detector", "zf", "--output", "ber.csv"],
    "ber-both-zf": ["ber", "--n", "24", "--l", "5", "--m", "4", "--snr", "0:30:10",
                    "--trials", "40", "--seed", "23", "--scheme", "both",
                    "--detector", "zf", "--output", "ber.csv"],
    # OFDM alone with MMSE at a large power-of-two N
    "ber-n256-ofdm-mmse": ["ber", "--n", "256", "--l", "16", "--m", "16", "--snr", "0:30:10",
                           "--trials", "8", "--seed", "43", "--scheme", "ofdm",
                           "--detector", "mmse", "--output", "ber.csv"],
    # a channel as long as the block: the cyclic prefix is N - 1 samples
    "ber-n64-l64": ["ber", "--n", "64", "--l", "64", "--m", "16", "--snr", "0:30:10",
                    "--trials", "10", "--seed", "47", "--scheme", "both",
                    "--detector", "both", "--output", "ber.csv"],
    # the shortest block with a butterfly stage, at the densest constellation
    "ber-n2-qam64": ["ber", "--n", "2", "--l", "2", "--m", "64", "--snr", "0:30:5",
                     "--trials", "60", "--seed", "53", "--scheme", "both",
                     "--detector", "both", "--output", "ber.csv"],
    # MMSE block solves up to a phi = 96 block (divisor 360 gives phi(360) = 96)
    "ber-n360-rpsdm-mmse": ["ber", "--n", "360", "--l", "16", "--m", "16", "--snr", "0:30:10",
                            "--trials", "5", "--seed", "53", "--scheme", "rpsdm",
                            "--detector", "mmse", "--output", "ber.csv"],
    # extreme regularizers: zeta = 100 at -20 dB and zeta = 1e-30 at 300 dB
    "ber-n30-extreme-snr": ["ber", "--n", "30", "--l", "7", "--m", "16", "--snr=-20,0,300",
                            "--trials", "40", "--seed", "59", "--scheme", "both",
                            "--detector", "both", "--output", "ber.csv"],
    "papr-ccdf": ["papr-ccdf", "--n", "64,128", "--m", "16", "--trials", "2000",
                  "--seed", "1", "--thresholds", "0:14:0.25", "--output", "ccdf.csv"],
    # one draw per block serves every curve of a job: a descending N list
    # takes its short blocks as prefixes of the long ones drawn first
    "papr-ccdf-descending": ["papr-ccdf", "--n", "512,64", "--m", "16", "--trials", "600",
                             "--seed", "29", "--output", "ccdf.csv"],
    "papr-ccdf-n12-repeat": ["papr-ccdf", "--n", "12,64,12", "--m", "16", "--trials", "800",
                             "--seed", "31", "--thresholds", "0:12:0.5",
                             "--output", "ccdf.csv"],
    "papr-ccdf-rpsdm-qam64": ["papr-ccdf", "--n", "32,96", "--m", "64", "--trials", "1000",
                              "--seed", "37", "--scheme", "rpsdm", "--output", "ccdf.csv"],
    # more blocks than one CCDF chunk
    "papr-ccdf-chunks": ["papr-ccdf", "--n", "16,64", "--m", "4", "--trials", "2500",
                         "--seed", "41", "--output", "ccdf.csv"],
    # a seed of two 32-bit words
    "papr-ccdf-seed-2e32-json": ["papr-ccdf", "--n", "8,64", "--m", "16", "--trials", "700",
                                 "--seed", "4294967296", "--format", "json",
                                 "--output", "ccdf.json"],
    # gemm lengths, a 1-row chunk tail (2049 = 2048 + 1) and N=512, whose
    # chunk the CCDF engine walks in several row tiles
    "papr-ccdf-tiles": ["papr-ccdf", "--n", "12,96,512", "--m", "16", "--trials", "2049",
                        "--seed", "43", "--thresholds", "0:12:0.5", "--output", "ccdf.csv"],
    # N=2 at 64-QAM puts many blocks exactly on the 0 dB threshold, so the
    # count there must stay a strict ">"; 2049 trials leave a 1-row chunk,
    # and N=512 spans several row tiles
    "papr-ccdf-ties": ["papr-ccdf", "--n", "2,8,512", "--m", "64", "--trials", "2049",
                       "--seed", "17", "--thresholds", "0:12:0.5", "--output", "ccdf.csv"],
    "dump-basis": ["dump-basis", "--n", "16", "--output", "basis"],
    "papr-worst": ["papr-worst", "--n", "8,16,32,64,128,256,512", "--m", "16",
                   "--output", "worst.csv"],
    "complexity": ["complexity", "--n", "4,16,64,256", "--output", "complexity.csv"],
}

GOLDEN = {
    'ber-both-zf': {
        'stdout': '01f66fc7d29206bf96e3c76b9d570a4f92fa47ed3780abc0577782f16dc66731',
        'ber.csv': '27b9c6c8679108b7e0f6245e588265181f6765e5a9ac8851ecb2c7aae138f836',
    },
    'ber-n1-l1': {
        'stdout': 'e22bda53836262eaf617eb759ebeb76882f0f87c110f00722dbc8b18062dfe5a',
        'ber.csv': 'da10dbdad014abbdf92360ef3f27204bf8800edeb11bf2e2e06f39b0a2125aa2',
    },
    'ber-n12-qam64': {
        'stdout': '7da047c6b29ea6db9bca5daaa652bcd03bcfe14a801bd68663b6fc21ce4a2e6d',
        'ber.csv': '0dcb10785fc8649ebc2254563335a2a9e6884c393fdff8f67fa12c4246f75ef6',
    },
    'ber-n128': {
        'stdout': '3389fd40107aa81378ea840c609c13e1c42003980671d5a8bd77dfd593aa5be0',
        'ber.csv': 'f1b8c411d8de67682af37ea2c0ec8e7eaab17561039249a10ef644170619fb80',
    },
    'ber-n256-ofdm-mmse': {
        'stdout': 'c0c67b3d35718bd6fc56ddf750031f1bc8137705ecc7325faa10fca442472f1d',
        'ber.csv': 'c42f0e783a37cc07cd6b7dbb279643e1c0aa9a6eccdea77964c09905b7c4cc93',
    },
    'ber-n2-qam64': {
        'stdout': 'd6c48a4ff337a9757f96b1f77e9a875de3a4902fd20032675b41186830bb5432',
        'ber.csv': '19b3b589322befbc6d1a1de2764a760ec064892c0938523de059639e0661f3d0',
    },
    'ber-n24-chunks': {
        'stdout': '16213ea758507b95bebc653a112ed3c43d6e8c612c3db5017a50abec39997d30',
        'ber.csv': 'e5e4b4fedccd7f8c5bdf04897f436b41e605ff37cf671bfeb365e5dfc1d95a41',
    },
    'ber-n30-extreme-snr': {
        'stdout': '4cd3685aa44c39a1fb9c5092bcfe9fda433d8536135535b899acbcadb943eea9',
        'ber.csv': '13c0c2678af969737f7c2e19901c1b647ef6ca261af8c176b98a343d40cf71b7',
    },
    'ber-n360-rpsdm-mmse': {
        'stdout': 'a084854a6598be3dba709dbf685782d1388068e420cb865e00f42af072f05fd8',
        'ber.csv': '9e7239356fb3a24c256956cb3e5caf54ef64040fd5bc5c6a5ccb7688a17ec9e2',
    },
    'ber-n512': {
        'stdout': 'eb9199ea55e92c23a09601fb6df0a7771fdcdc62903c7aff71abeb5e04d87ab7',
        'ber.csv': '3f4f01dd1e86f8ffd3191e703b3d1d7476337bb7edbc70512c968fc5d57b7b39',
    },
    'ber-n64-l64': {
        'stdout': 'c954e9a3c35315187733e36cc94bde5d8f3743c3961b8e2f8836115d609e955c',
        'ber.csv': 'c7a0692032a33366211750e0af92104b395173075ca75b74275e27d9d190c366',
    },
    'ber-n96-json': {
        'stdout': 'c815f0b6fc02c81e153346b4c0db54af46250cc93ab0622d0e5c4bbda54e1fdf',
        'ber.json': '0d4a2b4f14f5fd26646dac8293903df91591dea321dff45c6a931256dba17bcf',
    },
    'ber-n96-rpsdm-mmse': {
        'stdout': '29d34d8f753b1ebac8367737973ade4221811ab0feaacd61f98470bdf11012da',
        'ber.csv': 'd4df2f159efdd450e45394ec6f9308589628dbe01b837c91247b98f36438b935',
    },
    'ber-ofdm-zf': {
        'stdout': 'f244f62123bca2f16212438af4f08d3fb02af3f0ccb3f8986eb9840e4caaab17',
        'ber.csv': '37000f20ecad2ad6ab15f570a8ea14a9820aeac449f0262dfa9010f31383b96f',
    },
    'complexity': {
        'stdout': '99208376f9045d8ecf36e7342aa481061a8974080e2042833671bc9fb59d96a4',
        'complexity.csv': 'b1bcf51b335d210c12b71266380248f28693a53e5f9ac9d14b6cec2878d82ec3',
    },
    'dump-basis': {
        'stdout': '8c9660ede0b89b99f871fceabdd929cf1d2a23510156435b029bafda07114c88',
        'basis_er.csv': '135670edde5b1fda64d7c2221495b87e3c676f4655aaf036134aae7ff67fded0',
        'basis_et.csv': 'dea28979a54feb367cd9b32b070925867bf7a096056c38916007f855ba6da166',
        'basis_qnorm.csv': '97860881c9eb7ea36e63959a8b319814aa39cf7bf9b04ea1afa15b8d05e4727a',
    },
    'papr-ccdf': {
        'stdout': '7a6e96d0b77d1125f4722a0497511fe4cab194945ba79c69726b0af269494cef',
        'ccdf.csv': '8ae9bef348262c4885bdbf4f49f7d09cb353c14e8001c8c3c5d60b451589f23c',
    },
    'papr-ccdf-chunks': {
        'stdout': 'fd1c465781aba42849977cdf6be1a98a3624624d22daac43443da53c0d5404fa',
        'ccdf.csv': 'cc2f994b3a05fd46cbe5109ba093a61ba5bb24aaf1b306444ebdc7a3d0b0cec0',
    },
    'papr-ccdf-descending': {
        'stdout': '4866a3c95f93fa5f160df428001477393ded1bfe1ca5fd42135997df06e26778',
        'ccdf.csv': '8d1f3e11c88595f3c5485259ef12ed834b15496b53d07526594b598096dd6657',
    },
    'papr-ccdf-n12-repeat': {
        'stdout': '9f8f4109a2b0f55d084c5e397df649d1abc99f4acd70e32f198209d152385abd',
        'ccdf.csv': 'd87ffdb8be5902e38229c1d00ee40f3cace6e372d6fd736daa6b987d9f5c5fc9',
    },
    'papr-ccdf-rpsdm-qam64': {
        'stdout': '30baa97ba27e46922a51727c7f0aed83016086cee81805cccad684a3a358ac36',
        'ccdf.csv': '02bc304fb39b074c5db90e0f486c113d0c30903e88462afa9b3a0e8feafdbd62',
    },
    'papr-ccdf-seed-2e32-json': {
        'stdout': 'e22edebf4ad8bd97ad067b4cea334109ce344bb10a997e4cad8cb84776f2692d',
        'ccdf.json': 'd3cc3fdc310da3d05a08ac090276c3672d554298171081cafdd5c3938575c7af',
    },
    'papr-ccdf-tiles': {
        'stdout': 'e618cc0070808f03b9b593fcfdd026387a713e62efa2021ea93636b7f3e75b4b',
        'ccdf.csv': '83c8043ce98a4c81001970300343eeb0448548f8f81d7c21e9a23842de1c2ecd',
    },
    'papr-ccdf-ties': {
        'stdout': '5592ea648783613339ab16d1eb50dcf2b45b6cec88fa24a5f8ea433d35f13d49',
        'ccdf.csv': '08336b854ca6c4b7756da03fee38ad59fc40565b51dad6db1f9734ec13d7eea3',
    },
    'papr-worst': {
        'stdout': '353696ad3ec1a13b70b407e93df35def1aee2a74d4fc97d713af290615c3e397',
        'worst.csv': '938f85c5fbbd4305e17117c5a1bafd59ecedf21506ca1402ec6df06678f6a54b',
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(argv: list[str], directory: str) -> dict[str, str]:
    """Run ``argv`` in ``directory``; digest of stdout and of every file the
    run wrote there."""
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(stdout):
            assert main(list(argv)) == 0
    finally:
        os.chdir(cwd)
    out = {"stdout": _sha(stdout.getvalue().encode())}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = _sha(fh.read())
    return out


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_bytes_unchanged(name, tmp_path):
    assert _digests(RUNS[name], str(tmp_path)) == GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as directory:
            print(f"    {name!r}: {{")
            for key, value in _digests(RUNS[name], directory).items():
                print(f"        {key!r}: {value!r},")
            print("    },")
    print("}")
