"""How fingerprint similarity is scored.

A fingerprint maps AP MAC addresses to mean RSS in dBm. The score is a
cosine variant: the dot product runs over the MACs the two fingerprints
share, while each norm runs over the full fingerprint. Readings are
kept in raw dBm, so two fingerprints agree only when they see the same
APs at the same strengths; an AP seen by just one side pulls the score
down through its norm.
"""
from wifipoi.model import Fingerprint
from wifipoi.similarity import cosine_similarity, similarity_matrix


def fp(rssi: dict[str, float]) -> Fingerprint:
    return Fingerprint(rssi=rssi, counts={m: 1 for m in rssi})


A, B, C = "aa:00:00:00:00:01", "bb:00:00:00:00:02", "cc:00:00:00:00:03"

same = fp({A: -40.0, B: -80.0})
print(f"identical fingerprints      -> {cosine_similarity(same, same)}")

# shared strong AP, private weak ones: numerator 1600, norms sqrt(8000) each
left = fp({A: -40.0, B: -80.0})
right = fp({A: -40.0, C: -80.0})
print(f"one shared AP of two        -> {cosine_similarity(left, right)}")

print(f"no shared APs               -> {cosine_similarity(fp({A: -50.0}), fp({B: -50.0}))}")

# scaling every reading by the same factor does not change the score
doubled = fp({A: -80.0, B: -160.0})
print(f"proportional readings       -> {cosine_similarity(same, doubled)}")

# a batch of rooms: two desks in the same room, one elsewhere
rooms = [
    fp({A: -45.0, B: -60.0}),
    fp({A: -47.0, B: -58.0}),
    fp({C: -50.0}),
]
print("\nall pairs at once, as a matrix (row i, column j scores rooms i and j):")
for row in similarity_matrix(rooms):
    print("  " + "  ".join(f"{value:6.4f}" for value in row))
