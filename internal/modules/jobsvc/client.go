package jobsvc

import (
	"context"
	"fmt"

	"fluxgo/internal/broker"
	"fluxgo/internal/kvs"
	"fluxgo/internal/wire"
)

// Submit enqueues a job and returns its id.
func Submit(h *broker.Handle, spec Spec) (string, error) {
	resp, err := h.RPC("job.submit", wire.NodeidAny, spec)
	if err != nil {
		return "", err
	}
	var body struct {
		ID string `json:"id"`
	}
	if err := resp.UnpackJSON(&body); err != nil {
		return "", err
	}
	return body.ID, nil
}

// List returns active (queued + running) jobs, ordered by id.
func List(h *broker.Handle) ([]*Info, error) {
	resp, err := h.RPC("job.list", wire.NodeidAny, nil)
	if err != nil {
		return nil, err
	}
	var body struct {
		Jobs []*Info `json:"jobs"`
	}
	if err := resp.UnpackJSON(&body); err != nil {
		return nil, err
	}
	return body.Jobs, nil
}

// Cancel removes a queued job or signals a running one.
func Cancel(h *broker.Handle, id string) error {
	_, err := h.RPC("job.cancel", wire.NodeidAny, map[string]string{"id": id})
	return err
}

// GetInfo fetches one job's record (active jobs from the service,
// completed jobs from their KVS provenance trail).
func GetInfo(h *broker.Handle, id string) (*Info, error) {
	resp, err := h.RPC("job.info", wire.NodeidAny, map[string]string{"id": id})
	if err != nil {
		return nil, err
	}
	var info Info
	if err := resp.UnpackJSON(&info); err != nil {
		return nil, err
	}
	return &info, nil
}

// terminal reports whether a state ends the job lifecycle.
func terminal(state string) bool {
	return state == StateComplete || state == StateFailed || state == StateCancelled
}

// Wait blocks until the job reaches a terminal state and returns its
// final record, following job.state events.
func Wait(ctx context.Context, h *broker.Handle, id string) (*Info, error) {
	sub, err := h.Subscribe("job.state")
	if err != nil {
		return nil, err
	}
	defer sub.Close()

	kc := kvs.NewClient(h)
	// The job may already be done. Sync to the root its record was read
	// at, as for an event, so that what the job wrote is readable here.
	if info, err := GetInfo(h, id); err == nil && terminal(info.State) {
		if err := kc.WaitVersion(info.Version); err != nil {
			return nil, err
		}
		return info, nil
	}
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case ev, ok := <-sub.Chan():
			if !ok {
				return nil, fmt.Errorf("job: subscription closed waiting for %s", id)
			}
			var se stateEvent
			if err := ev.UnpackJSON(&se); err != nil || se.ID != id || !terminal(se.State) {
				continue
			}
			// Sync to the recording commit before reading the record.
			if err := kc.WaitVersion(se.Version); err != nil {
				return nil, err
			}
			return GetInfo(h, id)
		}
	}
}
