"""What one item of each workload does, and how its output is checked.

An item is one operation.  ``run`` is the timed part; ``check`` runs
outside the timed region and returns problems (see checks.py).  The
first round checks every output in full; later rounds repeat the same
inputs and compare each output with the checked one.
"""

import json
import os
import subprocess
import sys

import checks
import inputs


class InProcess:
    """Common shape of the workloads that call the library in this process."""

    child_rss = False

    def __init__(self, library, cases, arguments, points):
        self.wm = library
        self.cases = cases
        self.arguments = arguments
        self.points = points

    def close(self):
        pass


class WildCertify(InProcess):
    """Build a wild family member, read its multidegree, check both inverses."""

    tail_percentile = 95.0
    min_rounds = 3

    def run(self, i):
        wm = self.wm
        _, classification = wm.wild_family(self.arguments[i])
        realization = classification.realization
        degrees = wm.multidegree(realization)
        left = wm.compose(wm.inverse(realization), realization)
        right = wm.compose(realization, wm.inverse(realization))
        return realization, degrees, left, right, left.is_identity(), right.is_identity()

    def fingerprint(self, output):
        realization, degrees, left, right, left_ok, right_ok = output
        return degrees, left_ok, right_ok, tuple(len(c) for c in realization.coords)

    def check(self, i, output):
        return checks.wild_certify(self.cases[i], plain_wild(*output), self.points)


def plain_wild(realization, degrees, left, right, left_ok, right_ok):
    """The wild_certify output as plain data: term maps and generator tuples."""
    return {
        "multidegree": degrees,
        "coords": [c.terms() for c in realization.coords],
        "factors": [_generator(g) for g in realization.factors],
        "left": [c.terms() for c in left.coords],
        "right": [c.terms() for c in right.coords],
        "flags": (left_ok, right_ok),
    }


def _generator(generator):
    kind = type(generator).__name__
    if kind == "Transposition":
        return ("T",)
    if kind == "Triangular":
        return ("shift", generator.variable, generator.shift.terms())
    return ("nagata", generator.power, generator.scale)


class ClassifySurvey(InProcess):
    """classify_tame, to_dict without the realization, json.dumps."""

    tail_percentile = 99.9
    min_rounds = 2

    def __init__(self, *args):
        super().__init__(*args)
        self._tables = {}

    def run(self, i):
        result = self.wm.classify_tame(self.arguments[i])
        return json.dumps(result.to_dict(include_realization=False))

    def fingerprint(self, output):
        return output

    def check(self, i, output):
        d1, d2, d3 = triple = self.cases[i]
        if d3 <= inputs.DENSE_MAX:
            table = self._tables.get((d1, d2))
            if table is None:
                table = self._tables[d1, d2] = checks.reachable(d1, d2, inputs.DENSE_MAX)
            member = table[d3]
        else:
            member = checks.in_semigroup(d1, d2, d3)
        return checks.classification(triple, json.loads(output), member)


class CliSession:
    """One ``python -m wildmdeg ... --format json`` process per item."""

    tail_percentile = 77.5
    min_rounds = 3
    child_rss = True

    def __init__(self, library, cases, arguments, points, trace_dir=None):
        self.cases = cases
        self.arguments = arguments
        self.points = points
        self.trace_dir = trace_dir
        self.trace_files = []
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(inputs.SRC), env.get("PYTHONPATH")) if p
        )
        self.env = env
        inputs.OUT.mkdir(exist_ok=True)
        self.stderr = open(inputs.OUT / "cli-stderr.txt", "w+b")

    def close(self):
        self.stderr.close()

    def run(self, i):
        """(exit code, stdout bytes, peak RSS of the child in kB)."""
        if self.trace_dir is None:
            command = [sys.executable, "-m", "wildmdeg"]
        else:
            path = self.trace_dir / f"child-{len(self.trace_files)}.json"
            self.trace_files.append(path)
            command = [sys.executable, str(inputs.HERE / "cli_child.py"), str(path)]
        self.stderr.seek(0)
        self.stderr.truncate()
        proc = subprocess.Popen(
            command + self.arguments[i], stdout=subprocess.PIPE,
            stderr=self.stderr, env=self.env, cwd=inputs.ROOT,
        )
        with proc.stdout:
            stdout = proc.stdout.read()
        # wait4 reaps the child and returns its own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, stdout, usage.ru_maxrss

    def fingerprint(self, output):
        return output[:2]

    def check(self, i, output):
        code, stdout, _ = output
        if code == 3:
            self.stderr.seek(0)
            message = self.stderr.read().decode(errors="replace").strip()
            return [("exit_code", f"{' '.join(self.arguments[i])}: usage error: {message}")]
        return checks.cli_call(self.arguments[i], code, stdout, self.points)


CLASSES = {
    "wild_certify": WildCertify,
    "classify_survey": ClassifySurvey,
    "cli_session": CliSession,
}

