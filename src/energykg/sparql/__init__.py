from .ast import SelectQuery, SolutionSequence
from .parser import QueryParseError, UnsupportedFeatureError, parse_query
from .evaluator import PreparedQuery, QueryTimeout, evaluate, prepare
from .results import to_results_json, to_results_tsv

__all__ = [
    "SelectQuery",
    "SolutionSequence",
    "QueryParseError",
    "UnsupportedFeatureError",
    "PreparedQuery",
    "QueryTimeout",
    "parse_query",
    "evaluate",
    "prepare",
    "to_results_json",
    "to_results_tsv",
]
