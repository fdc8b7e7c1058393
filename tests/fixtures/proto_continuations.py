"""PROTO003 through callback continuations.

Never imported; ``tests/test_sanitize_lint.py`` lints this file under a
virtual ``src/repro/hw/...`` path.  ``ChainedNic`` retires work and posts
the CQE two scheduled callbacks later, which is clean.  ``LeakyNic``
retires work and schedules a callback that never posts; ``ParkedNic``
hands a posting method to a call that schedules nothing.  Exactly one
PROTO003 finding each, in their ``retire``.
"""


class ChainedNic:
    def retire(self, qp, psn):
        wr = qp.outstanding.pop(psn)
        self.sim.call_later(250.0, self._landed, (qp, wr))

    def _landed(self, job):
        qp, wr = job
        self.fabric.transmit(0, 1, 64, wr, self._sent, job)

    def _sent(self, job):
        qp, wr = job
        self._post_cqe(qp.send_cq, wr, self._done, qp)

    def _done(self, qp):
        qp.done = True


class LeakyNic:
    def retire(self, qp, psn):
        wr = qp.outstanding.pop(psn)
        qp.sq_outstanding -= 1  # PROTO003: the callback never posts
        self.sim.call_urgent(self._forget, wr)

    def _forget(self, wr):
        self.retired.append(wr)


class ParkedNic:
    def retire(self, qp, psn):
        wr = qp.outstanding.pop(psn)  # PROTO003: parked, never scheduled
        self.pending.append(self._finish)
        log(self._finish, wr)

    def _finish(self, wr):
        self._post_cqe(wr.qp.send_cq, wr)
