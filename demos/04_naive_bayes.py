"""
Naive Bayes over nominal features: a product of disagreements
=============================================================

Nominal features have no distance and no order, so neighborhoods and
thresholds are unavailable.  Instead the query is split into one
single-feature part per position, each part is scored by the fraction
of same-valued training cases whose label disagrees with the candidate
answer, and the per-feature scores multiply.  The candidate label with
the smaller product wins; a feature value never seen in training
contributes the indifferent score one half.
"""

from minconsist import FeatureVector, nb_predict, training_set
from minconsist.oracle import brute_nb_total

# Weather-style nominal data: (sky, wind, humidity) -> play.  Feature
# vectors must be pairwise distinct; the pools that matter for scoring
# are per position, where values repeat freely.
T = training_set([
    (("sunny", "calm", "dry"), 1),
    (("sunny", "calm", "damp"), 1),
    (("sunny", "windy", "dry"), 1),
    (("rainy", "calm", "damp"), 0),
    (("rainy", "windy", "dry"), 0),
    (("rainy", "windy", "damp"), 0),
    (("sunny", "windy", "damp"), 0),
    (("rainy", "calm", "dry"), 1),
])

print("training cases:")
for case in T.cases:
    print("  ", case.x.values, "->", case.y)
print()

# Score both candidate labels at a query and show the product fold.
for query in (("sunny", "calm", "dry"),
              ("rainy", "windy", "damp"),
              ("sunny", "windy", "dry")):
    x0 = FeatureVector(query)
    label, report = nb_predict(x0, T)
    parts = list(zip(query, report.mus))
    print(f"query {query}: answer {label}")
    print("   per-feature disagreement:", parts)
    print("   product:", report.total)
print()

# An independent oracle recomputes the product straight off the raw
# cases, for both labels, with none of the library's plumbing.
x0 = FeatureVector(("sunny", "calm", "dry"))
print("brute-force products at ('sunny', 'calm', 'dry'):",
      {label: brute_nb_total(x0, T, label) for label in (0, 1)})
print()

# Unseen values fall back to one half per feature, which keeps the
# product defined without inventing counts.
never = FeatureVector(("foggy", "calm", "dry"))
label, report = nb_predict(never, T)
print("query with unseen 'foggy':", label, "product", report.total)
