"""The names of the machine-learning classifiers.

They live apart from ``ml`` so that the command line can offer them as
``--classifier`` choices without importing numpy.
"""

KNN = "knn"
LOGISTIC_REGRESSION = "logistic_regression"
RANDOM_FOREST = "random_forest"
KINDS = (KNN, LOGISTIC_REGRESSION, RANDOM_FOREST)
