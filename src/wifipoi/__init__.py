"""Indoor point-of-interest extraction from crowdsensed Wi-Fi scan logs.

Pipeline: scan logs are clustered per user-day with a cosine-similarity
DBSCAN (a POI is a dense group of similar scans), revisits are matched
to stable per-user POI ids, and POI common to several users surface as
Louvain communities of the cross-user similarity graph.
"""
