"""Call-graph construction and worker-reachability, on synthetic modules.

These tests feed small hand-written module sets straight into
:class:`ProjectIndex` (no filesystem), so each asserts one structural
property of the graph: submission entries, engine-hierarchy entries,
class-family dispatch, the unresolved-receiver fallback, and the
deterministic dump.
"""

from repro.devtools.common.index import ProjectIndex
from repro.devtools.conclint.callgraph import build_callgraph

ENGINE_MODULE = """\
from repro.engines.base import AnswerEngine


def shared_helper(query):
    return query


class LocalEngine(AnswerEngine):
    def _answer_uncached(self, query):
        return shared_helper(query)
"""

SUBMIT_MODULE = """\
def _task(item):
    return _leaf(item)


def _leaf(item):
    return item


def untouched(item):
    return item


def drive(pool, items):
    return [pool.submit(_task, item) for item in items]
"""


def build(*modules: tuple[str, str]):
    index = ProjectIndex()
    for source, path in modules:
        index.add_module(source, path)
    return build_callgraph(index)


class TestEntryPoints:
    def test_submitted_function_is_an_entry(self):
        graph = build((SUBMIT_MODULE, "submitters.py"))
        assert "submitters._task" in graph.entries
        assert "submitted to a pool" in graph.entries["submitters._task"]

    def test_engine_methods_are_entries(self):
        graph = build((ENGINE_MODULE, "localengine.py"))
        entry = "localengine.LocalEngine._answer_uncached"
        assert entry in graph.entries
        assert "engine _answer_uncached implementation" in graph.entries[entry]

    def test_configured_runner_entry(self):
        source = "def _answer_chunk(name, queries):\n    return []\n"
        graph = build((source, "src/repro/core/runner.py"))
        assert (
            graph.entries["repro.core.runner._answer_chunk"]
            == "configured pool entry point"
        )


class TestReachability:
    def test_transitive_with_provenance(self):
        graph = build((SUBMIT_MODULE, "submitters.py"))
        # _task -> _leaf is reachable; the recorded origin is the entry.
        assert graph.is_worker_reachable("submitters._leaf")
        assert graph.reached_via("submitters._leaf") == "submitters._task"
        # The parent-side driver and an uncalled function are not.
        assert not graph.is_worker_reachable("submitters.drive")
        assert not graph.is_worker_reachable("submitters.untouched")

    def test_engine_entry_reaches_module_helpers(self):
        graph = build((ENGINE_MODULE, "localengine.py"))
        assert graph.is_worker_reachable("localengine.shared_helper")

    def test_self_dispatch_covers_the_class_family(self):
        base = (
            "class Base:\n"
            "    def run(self):\n"
            "        return self.step()\n"
            "    def step(self):\n"
            "        return 0\n"
        )
        sub = (
            "from base import Base\n"
            "class Sub(Base):\n"
            "    def step(self):\n"
            "        return 1\n"
        )
        driver = (
            "def drive(pool, obj):\n"
            "    return pool.submit(obj.run)\n"
        )
        graph = build((base, "base.py"), (sub, "sub.py"), (driver, "driver.py"))
        # obj.run resolves by name (CHA fallback) to Base.run; from there
        # self.step() dispatches over the whole family, Sub included.
        assert graph.is_worker_reachable("base.Base.run")
        assert graph.is_worker_reachable("base.Base.step")
        assert graph.is_worker_reachable("sub.Sub.step")

    def test_unresolved_receiver_links_by_method_name(self):
        holder = (
            "class Holder:\n"
            "    def work(self):\n"
            "        return 1\n"
        )
        driver = (
            "def drive(pool, registry, key):\n"
            "    return pool.submit(registry[key].work)\n"
        )
        graph = build((holder, "holder.py"), (driver, "driver.py"))
        assert graph.is_worker_reachable("holder.Holder.work")


class TestDeterministicDump:
    def test_insertion_order_does_not_change_the_dump(self):
        modules = [
            (SUBMIT_MODULE, "submitters.py"),
            (ENGINE_MODULE, "localengine.py"),
        ]
        forward = build(*modules)
        backward = build(*reversed(modules))
        assert forward.to_json() == backward.to_json()

    def test_dump_shape(self):
        payload = build((SUBMIT_MODULE, "submitters.py")).to_dict()
        assert set(payload) == {
            "modules", "functions", "edges", "entry_points", "reachable",
        }
        assert payload["modules"] == ["submitters"]
        assert ["submitters._task", "submitters._leaf"] in payload["edges"]
