"""The import path: a fresh interpreter gets speechprint without scipy.

scipy is imported only on first use (resampling, degradation and the
grid's Spearman test), so a CLI call or worker start that only decodes,
fingerprints and queries at the canonical rate never pays for it.
Neither does it load ``numpy.random``, which only synthesis and
degradation use. Each test runs its steps in a fresh interpreter,
because this one has long since imported both.
"""

import subprocess
import sys
from pathlib import Path

import speechprint

SRC = str(Path(speechprint.__file__).resolve().parent.parent)

# the benchmark's cold start (import, a streamer, an empty index), then a
# short 8 kHz clip decoded, fingerprinted, enrolled, queried, saved and
# loaded, an 8 kHz stream identified and another enrolled, and a resampler
# with equal factors used
COLD_START = """
import sys
sys.path.insert(0, sys.argv[1])
import speechprint as sp
import speechprint.cli
from speechprint.bench import BENCH_FINGERPRINT as fp
spectral = sp.SpectralConfig.for_variant("mel-vocal")
sp.StreamingFingerprinter(8000, spectral, fp)
digest = sp.config_digest(spectral, fp, 8000)
index = sp.RetrievalIndex.for_config(digest, fp)
clip = sp.decode_wav(sp.encode_wav(sp.synth_speech_like(3.0, 8000, seed=5)))
prints = sp.fingerprint_audio(clip, spectral, fp, file_id=7)
index.enroll(prints)
assert index.query(prints).file_id == 7
index.save(sys.argv[2])
assert sp.RetrievalIndex.load(sys.argv[2], digest).file_ids == [7]
pipeline = sp.Pipeline(index, sp.LabelRegistry(), spectral, fp)
wav = sp.encode_wav(sp.synth_speech_like(7.0, 8000, seed=5))
assert pipeline.identify_stream(sp.pipeline.stream_wav_bytes(wav)).file_id == 7
new = sp.encode_wav(sp.synth_speech_like(7.0, 8000, seed=6))
assert pipeline.identify_stream(sp.pipeline.stream_wav_bytes(new)).status == "enrolled"
assert len(sp.audio.Resampler(2, 2, "copy").feed(clip.samples)) == len(clip)
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

# the benchmark's cold start alone: no step draws a random number
BARE_START = """
import sys
sys.path.insert(0, sys.argv[1])
import speechprint as sp
import speechprint.cli
from speechprint.bench import BENCH_FINGERPRINT as fp
spectral = sp.SpectralConfig.for_variant("mel-vocal")
sp.StreamingFingerprinter(8000, spectral, fp)
sp.RetrievalIndex.for_config(sp.config_digest(spectral, fp, 8000), fp)
print("numpy.random" in sys.modules)
"""

# a server readies the resampler at start, and a 16 kHz stream resamples
SERVER_START = """
import sys
sys.path.insert(0, sys.argv[1])
import speechprint as sp
assert "scipy.signal" not in sys.modules
spectral = sp.SpectralConfig.for_variant("mel-vocal")
fp = sp.FingerprintConfig()
index = sp.RetrievalIndex.for_config(sp.config_digest(spectral, fp, 8000), fp)
server = sp.PipelineServer(
    ("127.0.0.1", 0), sp.Pipeline(index, sp.LabelRegistry(), spectral, fp)
)
try:
    assert "scipy.signal" in sys.modules
    clip = sp.synth_speech_like(1.0, 8000, seed=5)
    assert len(sp.resample(clip, 16000)) == 16000
finally:
    server.server_close()
"""


def run(code: str, *args: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code, SRC, *args],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cold_start_loads_no_scipy(tmp_path):
    assert run(COLD_START, str(tmp_path / "index.spx")) == ""


def test_server_start_loads_the_resampler():
    run(SERVER_START)


def test_cold_start_loads_no_numpy_random():
    assert run(BARE_START) == "False"
