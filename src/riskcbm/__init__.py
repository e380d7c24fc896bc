"""Risk-controlled concept annotation, augmentation, and bottleneck training.

The toolkit builds concept sets whose discriminability, coverage, and
diversity losses carry distribution-free risk guarantees, synthesizes
training positives for sparse reliable concepts, trains a linear
concept-bottleneck classifier, and evaluates it with concept-compliance
metrics.
"""
