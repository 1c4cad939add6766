package nfold

import (
	"context"
	"errors"
	"testing"

	"ccsched/internal/testutil"
)

// TestFlattenCanceled checks that Flatten stops on a canceled context, both
// before the first brick and between bricks.
func TestFlattenCanceled(t *testing.T) {
	p := buildSharedBlockProblem(5)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, ctx := range map[string]context.Context{
		"first brick":    canceled,
		"between bricks": testutil.CancelAfter(3),
	} {
		if mp, err := p.Flatten(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Flatten returned (%v, %v), want context.Canceled", name, mp, err)
		}
	}
	if _, err := p.Flatten(context.Background()); err != nil {
		t.Fatalf("live context: %v", err)
	}
}
