"""The upload path: wire format, batching, compression, raw store.

A device serializes each scan as one JSON line, holds scans until the
next upload tick, gzips the batch, and ships it. The server side
decodes the upload into columns (times, MAC ids, int8 readings) and
lands its scans in the raw store, where a re-sent scan with the same
readings is skipped, so uploads are safe to retry.
"""
from wifipoi.ingest import (
    RawStore,
    compress_batch,
    decode_log,
    decode_upload,
    decompress_batch,
    encode_log,
    plan_uploads,
    store_raw,
    upload_of,
)
from wifipoi.model import ScanLog, ScanResult, build_log

T0 = 1_772_841_600  # 2026-03-07 00:00:00 UTC
scans = [
    ScanResult(
        timestamp=T0 + 300 * i,
        observations=(
            ("aa:00:00:00:00:01", -52 - (i % 3)),
            ("bb:00:00:00:00:02", -70),
        ),
    )
    for i in range(72)  # six stationary hours
]
log = build_log("maria", "maria-phone", scans)

wire = encode_log(log)
print("first two wire lines:")
for line in wire.decode().splitlines()[:2]:
    print(f"  {line}")

packed = compress_batch(wire)
print(f"\n{len(wire)} wire bytes -> {len(packed)} gzipped ({len(wire) / len(packed):.1f}x)")
assert decode_log(decompress_batch(packed), user="maria").entries == log.entries
upload = decode_upload(decompress_batch(packed), user="maria")
print(f"decoded in columns: {len(upload.times)} scans, {len(upload.rssi)} readings,"
      f" {len(upload.macs)} APs")

print("\nupload plan (6-hour periods):")
for batch in plan_uploads(log, period=21600):
    lo, hi = batch.span
    payload = encode_log(ScanLog(log.user, batch.device, batch.scans))
    print(f"  [{lo}, {hi})  {len(batch.scans)} scans, {len(payload)} bytes")

store = RawStore()  # in-memory; the CLI uses a file
first = store_raw(store, [upload])[0]
again = store_raw(store, [upload_of(log)])[0]  # the same scans, from the in-memory log
print(f"\ningest: {first.added} added; retry: {again.added} added, {again.skipped} skipped")
print(f"maria has stored scans: {store.has_user('maria')}")
window = store.load_day("maria", T0, T0 + 3600)  # the same columns, which clustering reads
print(f"first hour holds {len(window.times)} scans over {len(window.macs)} APs")
store.close()
