"""How fingerprint similarity is scored.

A fingerprint keeps, per AP MAC address, the integer sum and count of
its whole-dBm readings. Scoring reads its mean vector, MAC -> mean RSS
in dBm (`Fingerprint.rssi`); the plain dicts below are such vectors.
The score is a cosine variant: the dot product runs over the MACs the
two vectors share, while each norm runs over the full vector. Readings
are kept in raw dBm, so two fingerprints agree only when they see the
same APs at the same strengths; an AP seen by just one side pulls the
score down through its norm.
"""
from wifipoi.model import Fingerprint
from wifipoi.similarity import cosine_similarity, similarity_matrix

A, B, C = "aa:00:00:00:00:01", "bb:00:00:00:00:02", "cc:00:00:00:00:03"

# four scans at one desk: the sums and counts give the mean vector
desk = Fingerprint(sums={A: -160, B: -320}, counts={A: 4, B: 4})
print(f"mean vector of the desk     -> {desk.rssi}")

same = {A: -40.0, B: -80.0}
print(f"identical fingerprints      -> {cosine_similarity(desk.rssi, same)}")

# shared strong AP, private weak ones: numerator 1600, norms sqrt(8000) each
left = {A: -40.0, B: -80.0}
right = {A: -40.0, C: -80.0}
print(f"one shared AP of two        -> {cosine_similarity(left, right)}")

print(f"no shared APs               -> {cosine_similarity({A: -50.0}, {B: -50.0})}")

# scaling every reading by the same factor does not change the score
doubled = {A: -80.0, B: -160.0}
print(f"proportional readings       -> {cosine_similarity(same, doubled)}")

# a batch of rooms: two desks in the same room, one elsewhere
rooms = [
    {A: -45.0, B: -60.0},
    {A: -47.0, B: -58.0},
    {C: -50.0},
]
print("\nall pairs at once, as a matrix (row i, column j scores rooms i and j):")
for row in similarity_matrix(rooms):
    print("  " + "  ".join(f"{value:6.4f}" for value in row))
